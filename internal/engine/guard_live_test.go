package engine

import (
	"bytes"
	"runtime"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/live"
	"repro/internal/pagestore"
	"repro/internal/wal"
)

// TestGuardMetricsAndJournal drives a WAL engine with the contention
// profile and recovery journal attached, and checks both observe the run:
// per-op wait/hold samples land in the right histograms, and recovery
// decisions appear in the journal in order. The profile reads a manual
// clock that only a log write advances, by a second, so a commit's hold
// must leave out its log force, which runs outside the mutex, and the wait
// for another commit's force; and a commit that waited still counts once.
// Last, a data-store write advances the clock too: a read's hold must
// leave out the steal write it makes outside the mutex, and another read's
// wait for that write before it reads the data store.
func TestGuardMetricsAndJournal(t *testing.T) {
	clock := live.NewManualClock(time.Unix(0, 0))
	logs := pagestore.New(wal.LogChunkSize)
	held, writing := make(chan struct{}), make(chan struct{}, 1)
	hold := false // the next log write waits until held is closed
	logs.SetFaultHook(func(op pagestore.Op, _ pagestore.PageID, _ int64) bool {
		if op == pagestore.OpWrite {
			if hold {
				hold = false
				writing <- struct{}{}
				<-held
			}
			clock.Advance(time.Second)
		}
		return false
	})
	e, _ := NewWALOn(pagestore.New(4096), wal.Config{LogStore: logs})
	gm := live.NewGuardMetrics(clock)
	e.Guard().SetMetrics(gm)
	if e.Guard().Metrics() != gm {
		t.Fatal("Metrics() does not round-trip")
	}
	j := obs.NewJournal()
	if err := e.Guard().SetJournal(j); err != nil {
		t.Fatalf("SetJournal: %v", err)
	}

	txn, err := e.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := txn.Write(1, []byte("a")); err != nil {
		t.Fatal(err)
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	loser, err := e.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := loser.Write(2, []byte("b")); err != nil {
		t.Fatal(err)
	}
	// A second committer forces every stream, making the loser's buffered
	// update durable — so recovery must classify it a loser and undo it.
	forcer, err := e.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := forcer.Write(3, []byte("c")); err != nil {
		t.Fatal(err)
	}
	if err := forcer.Commit(); err != nil {
		t.Fatal(err)
	}
	// Two commits at once: the first's force is held until the second has
	// appended its record and waits for the next force.
	var pair [2]*Txn
	for i := range pair {
		if pair[i], err = e.Begin(); err != nil {
			t.Fatal(err)
		}
		if err := pair[i].Write(int64(4+i), []byte("d")); err != nil {
			t.Fatal(err)
		}
	}
	hold = true
	done := make(chan error, 2)
	go func() { done <- pair[0].Commit() }()
	<-writing
	go func() { done <- pair[1].Commit() }()
	for e.Guard().Stats()["stream0.records"] < 9 { // 5 updates, 4 commit records
		runtime.Gosched()
	}
	close(held)
	for range pair {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if got := gm.Hold(live.GuardCommit).Sum(); got != 0 {
		t.Errorf("commit hold = %v ms, want 0: the log force and the wait for it are outside the mutex", got)
	}
	e.Crash()
	if err := e.Recover(); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		op   live.GuardOp
		want int64
	}{
		{live.GuardBegin, 5},
		{live.GuardWrite, 5},
		{live.GuardCommit, 4},
		{live.GuardRecover, 1},
	} {
		if got := gm.Wait(tc.op).Count(); got != tc.want {
			t.Errorf("%s wait samples = %d, want %d", tc.op, got, tc.want)
		}
		if got := gm.Hold(tc.op).Count(); got != tc.want {
			t.Errorf("%s hold samples = %d, want %d", tc.op, got, tc.want)
		}
	}
	if gm.Waiters() != 0 {
		t.Errorf("waiters after quiescence = %d", gm.Waiters())
	}

	if j.Len() == 0 {
		t.Fatal("journal empty after recovery")
	}
	events := map[string]int{}
	for _, r := range j.Records() {
		events[r.Event]++
	}
	for _, ev := range []string{"scan", "winner", "loser", "redo"} {
		if events[ev] == 0 {
			t.Errorf("journal has no %q record (events: %v)", ev, events)
		}
	}
	var buf bytes.Buffer
	if err := j.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Error("journal rendered empty")
	}

	// Detach both; further traffic must be invisible.
	e.Guard().SetMetrics(nil)
	if err := e.Guard().SetJournal(nil); err != nil {
		t.Fatal(err)
	}
	n := j.Len()
	if err := e.Recover(); err != nil {
		t.Fatal(err)
	}
	if j.Len() != n {
		t.Error("journal grew after detach")
	}
	if got := gm.Wait(live.GuardRecover).Count(); got != 1 {
		t.Errorf("metrics grew after detach: recover wait count %d", got)
	}

	// A one-page pool: T commits page 1, R1's read of page 2 steals it,
	// and the steal's write is held while R2's read of page 3 waits for it.
	data := pagestore.New(4096)
	k := &stealProbe{Manager: wal.NewManager(data, wal.Config{PoolPages: 1}), waits: make(chan struct{}, 1)}
	e = New(k)
	gm = live.NewGuardMetrics(clock)
	e.Guard().SetMetrics(gm)
	if err := e.Update(func(tx *Txn) error { return tx.Write(1, []byte("t")) }); err != nil {
		t.Fatal(err)
	}
	stealing, release := make(chan struct{}), make(chan struct{})
	data.SetFaultHook(func(op pagestore.Op, _ pagestore.PageID, _ int64) bool {
		if op == pagestore.OpWrite {
			close(stealing)
			<-release
			clock.Advance(time.Second)
		}
		return false
	})
	reads := make(chan error, 2)
	read := func(p int64) {
		reads <- e.Update(func(tx *Txn) error { _, err := tx.Read(p); return err })
	}
	go read(2)
	<-stealing
	go read(3)
	<-k.waits
	close(release)
	for range 2 {
		if err := <-reads; err != nil {
			t.Fatal(err)
		}
	}
	if n, sum := gm.Hold(live.GuardRead).Count(), gm.Hold(live.GuardRead).Sum(); n != 2 || sum != 0 {
		t.Errorf("read hold: %d samples, %v ms; want 2 and 0: the steal write and the wait for it are outside the mutex", n, sum)
	}
}

// TestSetJournalUnsupported covers kernels without a journal via a stub.
func TestSetJournalUnsupported(t *testing.T) {
	g := New(stubRM{}).Guard()
	if err := g.SetJournal(obs.NewJournal()); err != ErrUnsupported {
		t.Fatalf("SetJournal on journal-less kernel: %v, want ErrUnsupported", err)
	}
}

type stubRM struct{}

func (stubRM) Name() string                        { return "stub" }
func (stubRM) Load(int64, []byte) error            { return nil }
func (stubRM) Begin(uint64) error                  { return nil }
func (stubRM) Read(uint64, int64) ([]byte, error)  { return nil, nil }
func (stubRM) Write(uint64, int64, []byte) error   { return nil }
func (stubRM) Commit(uint64) error                 { return nil }
func (stubRM) Abort(uint64) error                  { return nil }
func (stubRM) Crash()                              {}
func (stubRM) Recover() error                      { return nil }
func (stubRM) ReadCommitted(int64) ([]byte, error) { return nil, nil }
