package faultinj

import (
	"sync"
	"testing"

	"repro/internal/pagestore"
)

// opTrace records every stable-storage operation of a scripted run.
type opTrace struct {
	mu  sync.Mutex
	ops []pagestore.Op
	ids []pagestore.PageID
}

func (tr *opTrace) hook() pagestore.FaultHook {
	return func(op pagestore.Op, id pagestore.PageID, seq int64) bool {
		tr.mu.Lock()
		tr.ops = append(tr.ops, op)
		tr.ids = append(tr.ids, id)
		tr.mu.Unlock()
		return false
	}
}

// TestSweepEnumeratesExistsAndDeleteBoundaries pins the two operation
// classes the old pagestore hid from the sweep: existence probes (Exists
// now fires the hook as an OpRead) and deletes (now counted as
// mutations). Both must appear in the scripted workload's operation
// stream, and cutting power exactly at each kind must recover cleanly.
func TestSweepEnumeratesExistsAndDeleteBoundaries(t *testing.T) {
	opt := Options{Seed: 1985}.withDefaults()
	var tg Target
	for _, cand := range Targets() {
		if cand.Name == "ow-noredo" {
			tg = cand
		}
	}
	e, stores, err := tg.Build()
	if err != nil {
		t.Fatal(err)
	}
	model, err := LoadPages(e, sweepPages)
	if err != nil {
		t.Fatal(err)
	}
	tr := &opTrace{}
	hook := tr.hook()
	for _, s := range stores {
		s.SetFaultHook(hook)
	}
	if out := RunScript(e, model, opt.Seed, sweepPages, sweepTxns); out.Crashed {
		t.Fatal("probe crashed")
	}

	// Find (a) an existence probe — an OpRead on an intention-list page
	// never written up to that point can only come from Exists (Read on
	// an absent page is never issued) — and (b) the first delete,
	// counting its 1-based mutation index as CrashAtMutation does.
	written := map[pagestore.PageID]bool{}
	existsAt := -1 // 1-based op index of the probe
	deleteMut := int64(-1)
	muts := int64(0)
	for i, op := range tr.ops {
		if op != pagestore.OpRead {
			muts++
		}
		switch op {
		case pagestore.OpWrite:
			written[tr.ids[i]] = true
		case pagestore.OpRead:
			if tr.ids[i] < -1000000 && !written[tr.ids[i]] && existsAt < 0 {
				existsAt = i + 1
			}
		case pagestore.OpDelete:
			if deleteMut < 0 {
				deleteMut = muts
			}
		}
	}
	if existsAt < 0 {
		t.Fatal("no existence probe in the ow-noredo op stream — Exists is invisible to the sweep again")
	}
	if deleteMut < 0 {
		t.Fatal("no delete in the ow-noredo mutation stream — intent cleanup is invisible to the sweep again")
	}

	// Cut power exactly at the delete (NoRedo's commit-time intent
	// cleanup): the commit is in doubt, recovery must resolve it
	// atomically and every audit must pass.
	po, err := sweepPoint(tg, opt, point{k: deleteMut}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(po.failures) != 0 {
		t.Fatalf("crash at delete boundary (mutation %d): %v", deleteMut, po.failures)
	}
	if !po.doubtApplied && !po.doubtReverted {
		t.Fatalf("crash at mutation %d left no in-doubt commit; expected the NoRedo intent delete", deleteMut)
	}

	// Cut power exactly at the existence probe: CrashAtOp counts reads
	// too, so the sweep's re-crash schedule can land here; recovery must
	// survive it.
	e2, stores2, err := tg.Build()
	if err != nil {
		t.Fatal(err)
	}
	model2, err := LoadPages(e2, sweepPages)
	if err != nil {
		t.Fatal(err)
	}
	chook := pagestore.CrashAtOp(int64(existsAt))
	for _, s := range stores2 {
		s.SetFaultHook(chook)
	}
	out := RunScript(e2, model2, opt.Seed, sweepPages, sweepTxns)
	if !out.Crashed {
		t.Fatalf("CrashAtOp(%d) never fired at the existence probe", existsAt)
	}
	e2.Crash()
	for _, s := range stores2 {
		s.SetFaultHook(nil)
	}
	if err := e2.Recover(); err != nil {
		t.Fatal(err)
	}
	fails, _ := AuditState(e2, out, sweepPages)
	fails = append(fails, AuditIdempotence(e2, sweepPages)...)
	fails = append(fails, AuditLiveness(e2, sweepPages)...)
	if len(fails) != 0 {
		t.Fatalf("crash at existence probe (op %d): %v", existsAt, fails)
	}
}

// TestSweepMutationCountsPinned pins the default workload's per-target
// mutation counts. These ARE the sweep's crash-point counts at -every 1:
// the full sweep's 554 points. A drift here means the stable-storage
// contract changed shape (an operation appeared, vanished, or switched
// class) — that must be a conscious decision, not an accident.
func TestSweepMutationCountsPinned(t *testing.T) {
	want := map[string]int64{
		"wal-1stream":  37,
		"wal-3streams": 63,
		"shadow":       87,
		"ow-noundo":    112,
		"ow-noredo":    162,
		"verselect":    73,
		"difffile":     20,
	}
	opt := Options{Seed: 1985}.withDefaults()
	total := int64(0)
	for _, tg := range Targets() {
		e, stores, err := tg.Build()
		if err != nil {
			t.Fatal(err)
		}
		model, err := LoadPages(e, sweepPages)
		if err != nil {
			t.Fatal(err)
		}
		before := mutations(stores)
		if out := RunScript(e, model, opt.Seed, sweepPages, sweepTxns); out.Crashed {
			t.Fatalf("%s: probe crashed", tg.Name)
		}
		got := mutations(stores) - before
		if got != want[tg.Name] {
			t.Errorf("%s: %d mutations, pinned %d", tg.Name, got, want[tg.Name])
		}
		total += got
	}
	if total != 554 {
		t.Errorf("total mutations = %d, pinned 554 (the 554-point crashsweep -every 1)", total)
	}
}
