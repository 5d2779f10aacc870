package machine

import (
	"testing"

	"repro/internal/disk"
	"repro/internal/sim"
	"repro/internal/workload"
)

// smallConfig is a fast configuration for unit tests.
func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.NumTxns = 10
	cfg.Workload.MaxPages = 60
	return cfg
}

func TestBareMachineRunsToCompletion(t *testing.T) {
	res, err := Run(smallConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed != 10 {
		t.Fatalf("committed = %d", res.Committed)
	}
	if res.ExecPerPageMs <= 0 || res.MeanCompletionMs <= 0 {
		t.Fatalf("degenerate metrics: %+v", res)
	}
	if res.PagesProcessed <= 0 {
		t.Fatal("no pages processed")
	}
}

func TestBareMachineDeterministic(t *testing.T) {
	a, err := Run(smallConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(smallConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.SimTime != b.SimTime || a.PagesProcessed != b.PagesProcessed ||
		a.ExecPerPageMs != b.ExecPerPageMs {
		t.Fatalf("nondeterministic: %+v vs %+v", a, b)
	}
}

func TestPagesProcessedCountsReadsAndWrites(t *testing.T) {
	cfg := smallConfig()
	m, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	reads := workload.TotalReads(m.pending)
	writes := workload.TotalWrites(m.pending)
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.PagesProcessed != int64(reads+writes) {
		t.Fatalf("pages processed = %d, want %d reads + %d writes",
			res.PagesProcessed, reads, writes)
	}
}

func TestSequentialFasterThanRandom(t *testing.T) {
	cfg := smallConfig()
	random, err := Run(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workload.Sequential = true
	seq, err := Run(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if seq.ExecPerPageMs >= random.ExecPerPageMs {
		t.Fatalf("sequential (%.2f) not faster than random (%.2f)",
			seq.ExecPerPageMs, random.ExecPerPageMs)
	}
}

func TestParallelDisksHelpSequential(t *testing.T) {
	cfg := smallConfig()
	cfg.Workload.Sequential = true
	conv, err := Run(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg.ParallelDisks = true
	par, err := Run(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if par.ExecPerPageMs >= conv.ExecPerPageMs {
		t.Fatalf("parallel-sequential (%.2f) not faster than conventional-sequential (%.2f)",
			par.ExecPerPageMs, conv.ExecPerPageMs)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := DefaultConfig()
	bad.QueryProcessors = 0
	if _, err := Run(bad, nil); err == nil {
		t.Error("zero QPs accepted")
	}
	bad = DefaultConfig()
	bad.MPL = 0
	if _, err := Run(bad, nil); err == nil {
		t.Error("zero MPL accepted")
	}
	bad = DefaultConfig()
	bad.DataDisks = 0
	if _, err := Run(bad, nil); err == nil {
		t.Error("zero disks accepted")
	}
}

func TestPlacementRoundTrip(t *testing.T) {
	p := newPlacement(2, 48, 24000, 0)
	if p.PhysPages() < 24000 {
		t.Fatalf("phys pages = %d", p.PhysPages())
	}
	seen := map[[2]int]bool{}
	for phys := 0; phys < 24000; phys++ {
		d, local := p.Locate(phys)
		if d < 0 || d >= 2 {
			t.Fatalf("disk %d", d)
		}
		key := [2]int{d, local}
		if seen[key] {
			t.Fatalf("phys %d collides at disk %d local %d", phys, d, local)
		}
		seen[key] = true
	}
	// Sequential pages within a cylinder stay on one disk.
	d0, l0 := p.Locate(0)
	d1, l1 := p.Locate(1)
	if d0 != d1 || l1 != l0+1 {
		t.Fatal("within-cylinder pages not contiguous on one disk")
	}
	// Cylinders stripe round-robin.
	d48, _ := p.Locate(48)
	if d48 == d0 {
		t.Fatal("consecutive cylinders on same disk")
	}
}

func TestRingAllocatorStaysOnDisk(t *testing.T) {
	p := newPlacement(2, 48, 24000, 4*48*2)
	start := p.ExtraRegionStart()
	r := NewRingAllocator(p, start, 4)
	for d := 0; d < 2; d++ {
		for i := 0; i < 10; i++ {
			phys := r.Next(d)
			if got := p.DiskOf(phys); got != d {
				t.Fatalf("scratch page %d for disk %d landed on disk %d", phys, d, got)
			}
			if phys < 24000 {
				t.Fatalf("scratch page %d inside database region", phys)
			}
		}
	}
	// The ring wraps.
	r2 := NewRingAllocator(p, start, 1)
	first := r2.Next(0)
	for i := 0; i < r2.Capacity()-1; i++ {
		r2.Next(0)
	}
	if r2.Next(0) != first {
		t.Fatal("ring did not wrap to first page")
	}
}

func TestLockConflictSerializesWriters(t *testing.T) {
	// Two transactions updating the same page must not overlap.
	cfg := DefaultConfig()
	cfg.NumTxns = 2
	cfg.MPL = 2
	// Hand-build the machine so we control the workload precisely.
	m, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	shared := workload.PageID(100)
	m.pending = []*workload.Txn{
		{ID: 0, Reads: []workload.PageID{shared, 101}, Writes: map[workload.PageID]bool{shared: true}},
		{ID: 1, Reads: []workload.PageID{shared, 102}, Writes: map[workload.PageID]bool{shared: true}},
	}
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed != 2 {
		t.Fatalf("committed = %d", res.Committed)
	}
	if res.LockWaits == 0 {
		t.Fatal("expected a lock wait between conflicting writers")
	}
}

func TestSharedLocksRunConcurrently(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumTxns = 2
	cfg.MPL = 2
	m, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	m.pending = []*workload.Txn{
		{ID: 0, Reads: []workload.PageID{100, 101}, Writes: map[workload.PageID]bool{}},
		{ID: 1, Reads: []workload.PageID{100, 102}, Writes: map[workload.PageID]bool{}},
	}
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.LockWaits != 0 {
		t.Fatalf("shared readers waited: %d waits", res.LockWaits)
	}
}

func TestStandardPlanShape(t *testing.T) {
	cfg := smallConfig()
	m, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	tx := &workload.Txn{
		ID:     0,
		Reads:  []workload.PageID{5, 6, 7},
		Writes: map[workload.PageID]bool{6: true},
	}
	at := &ActiveTxn{T: tx}
	plan := m.StandardPlan(at)
	if len(plan) != 3 {
		t.Fatalf("plan length %d", len(plan))
	}
	if plan[1].CPU != CPUPerPage+CPUPerUpdate {
		t.Fatalf("update CPU = %v", plan[1].CPU)
	}
	if plan[0].CPU != CPUPerPage {
		t.Fatalf("read CPU = %v", plan[0].CPU)
	}
	if !plan[1].Update || plan[0].Update || plan[2].Update {
		t.Fatal("update flags wrong")
	}
	if plan[1].WriteTo != 6 || plan[1].PhysPages[0] != 6 {
		t.Fatal("identity placement wrong")
	}
}

func TestSubmitPhysSplitsAcrossDisks(t *testing.T) {
	cfg := smallConfig()
	m, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	called := false
	// Pages 0 and 48 are on different disks (cylinder striping).
	m.SubmitPhys([]int{0, 48}, false, func() { called = true })
	m.eng.Run()
	if !called {
		t.Fatal("done not called")
	}
	if m.disks[0].Accesses() != 1 || m.disks[1].Accesses() != 1 {
		t.Fatalf("accesses = %d,%d", m.disks[0].Accesses(), m.disks[1].Accesses())
	}
}

func TestSubmitPhysEmptyCallsDone(t *testing.T) {
	m, err := New(smallConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	called := false
	m.SubmitPhys(nil, false, func() { called = true })
	if !called {
		t.Fatal("done not called for empty request")
	}
}

func TestCompletionIncludesWriteback(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumTxns = 1
	cfg.MPL = 1
	m, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	m.pending = []*workload.Txn{
		{ID: 0, Reads: []workload.PageID{10}, Writes: map[workload.PageID]bool{10: true}},
	}
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	// read (~seek+lat+xfer) + cpu 60ms + write: must exceed CPU alone.
	if res.MeanCompletionMs < CPUPerPage.ToMs() {
		t.Fatalf("completion %.2fms too small", res.MeanCompletionMs)
	}
	if res.PagesProcessed != 2 {
		t.Fatalf("pages processed = %d (1 read + 1 write)", res.PagesProcessed)
	}
}

func TestWindowLimitsFrames(t *testing.T) {
	cfg := smallConfig()
	cfg.CacheFrames = 2 * cfg.MPL // a window of 2 frames per transaction
	res, err := Run(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.MeanCacheUsed > float64(cfg.MPL*2)+0.5 {
		t.Fatalf("mean cache used %.1f exceeds MPL*window", res.MeanCacheUsed)
	}
}

func TestAuxDiskIndependent(t *testing.T) {
	m, err := New(smallConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	aux := m.NewAuxDisk("log0", 10)
	done := false
	aux.Submit(&disk.Request{Pages: []int{0}, Write: true, Done: func() { done = true }})
	m.eng.Run()
	if !done {
		t.Fatal("aux disk write never completed")
	}
	if m.disks[0].Accesses() != 0 && m.disks[1].Accesses() != 0 {
		t.Fatal("aux disk write hit a data disk")
	}
}

func TestHoldAndReleaseAdmissions(t *testing.T) {
	cfg := smallConfig()
	m, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	quiesced := false
	// Before anything runs, the machine is trivially quiescent.
	m.OnQuiescent(func() { quiesced = true })
	if !quiesced {
		t.Fatal("OnQuiescent not immediate on an idle machine")
	}
	// Drain mid-run: hold admissions at 200ms, note quiescence, release.
	var drainAt, resumeAt sim.Time
	m.Eng().After(sim.Ms(200), func() {
		m.HoldAdmissions()
		m.OnQuiescent(func() {
			drainAt = m.Eng().Now()
			m.ReleaseAdmissions()
			resumeAt = m.Eng().Now()
		})
	})
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed != cfg.NumTxns {
		t.Fatalf("committed = %d", res.Committed)
	}
	if drainAt <= sim.Ms(200) {
		t.Fatalf("drain at %v, expected after the hold", drainAt)
	}
	if resumeAt != drainAt {
		t.Fatalf("release should be immediate at quiescence: %v vs %v", resumeAt, drainAt)
	}
	if !m.Finished() {
		t.Fatal("Finished() false after the run")
	}
}

func TestReleaseWithoutHoldIsNoop(t *testing.T) {
	m, err := New(smallConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	m.ReleaseAdmissions() // must not panic or admit anything
	if len(m.active) != 0 {
		t.Fatal("release admitted transactions without a hold")
	}
}
