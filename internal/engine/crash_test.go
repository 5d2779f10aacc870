package engine

import (
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/lockmgr"
	"repro/internal/pagestore"
	"repro/internal/sim"
)

// memBuild builds arch through Build over fresh memory stores and returns
// every store it made.
func memBuild(t *testing.T, arch string, walPool int) (*Engine, []*pagestore.Store) {
	t.Helper()
	e, stores, err := Build(arch, walPool, func(_ string, pageSize int) (*pagestore.Store, error) {
		return pagestore.New(pageSize), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return e, stores
}

// TestCrashScheduleSweep drives every engine through a randomized
// transaction history, cutting power at every possible stable-write
// boundary of every store it writes, data and log alike, and verifies that
// recovery always restores a state consistent with the committed (plus
// possibly one atomic in-doubt) history. The budget rises until a history
// runs to its end with no cut, so every write of the last one is a point.
func TestCrashScheduleSweep(t *testing.T) {
	const pages, maxBudget = 6, 1000
	for _, arch := range Architectures() {
		t.Run(arch, func(t *testing.T) {
			for budget := int64(1); runCrashSchedule(t, arch, budget, pages); budget++ {
				if budget == maxBudget {
					t.Fatalf("power was still cut at budget %d", budget)
				}
			}
		})
	}
}

// runCrashSchedule runs one history with power cut at its budget-th stable
// write, recovers and audits; it reports whether the cut happened.
func runCrashSchedule(t *testing.T, arch string, budget int64, pages int) bool {
	t.Helper()
	e, stores := memBuild(t, arch, 4)
	model := map[int64]string{}
	for p := int64(0); p < int64(pages); p++ {
		v := fmt.Sprintf("init%d", p)
		if err := e.Load(p, []byte(v)); err != nil {
			t.Fatalf("budget %d: load: %v", budget, err)
		}
		model[p] = v
	}
	rng := sim.NewRNG(budget * 7919)
	hook := pagestore.CrashAtMutation(budget + 1)
	for _, s := range stores {
		s.SetFaultHook(hook)
	}

	// Run transactions until the store crashes (or a fixed cap).
	var doubt map[int64]string
	for i := 0; i < 25; i++ {
		tx, err := e.Begin()
		if err != nil {
			break // store down
		}
		writes := map[int64]string{}
		n := rng.UniformInt(1, 3)
		failed := false
		for j := 0; j < n; j++ {
			p := int64(rng.Intn(pages))
			v := fmt.Sprintf("b%d-t%d-%d", budget, tx.ID(), j)
			if err := tx.Write(p, []byte(v)); err != nil {
				failed = true
				break
			}
			writes[p] = v
		}
		if failed {
			_ = tx.Abort() // may itself fail; either way it is a loser
			break
		}
		if rng.Bool(0.2) {
			if err := tx.Abort(); err != nil {
				break
			}
			continue
		}
		if err := tx.Commit(); err != nil {
			doubt = writes // power failed mid-commit: in doubt
			break
		}
		for p, v := range writes {
			model[p] = v
		}
	}

	e.Crash()
	fired := false
	for _, s := range stores {
		fired = fired || s.Crashed()
		s.SetFaultHook(nil)
	}
	if err := e.Recover(); err != nil {
		t.Fatalf("budget %d: recover: %v", budget, err)
	}
	applied, reverted := 0, 0
	for p := int64(0); p < int64(pages); p++ {
		got, err := e.ReadCommitted(p)
		if err != nil {
			t.Fatalf("budget %d: read %d: %v", budget, p, err)
		}
		if v, ok := doubt[p]; ok {
			switch string(got) {
			case v:
				applied++
			case model[p]:
				reverted++
			default:
				t.Fatalf("budget %d: page %d = %q (neither %q nor %q)",
					budget, p, got, v, model[p])
			}
			continue
		}
		if string(got) != model[p] {
			t.Fatalf("budget %d: page %d = %q, want %q", budget, p, got, model[p])
		}
	}
	if applied > 0 && reverted > 0 {
		t.Fatalf("budget %d: in-doubt commit torn (%d applied, %d reverted)",
			budget, applied, reverted)
	}

	// The recovered engine must be fully operational.
	if err := e.Update(func(tx *Txn) error { return tx.Write(0, []byte("post")) }); err != nil {
		t.Fatalf("budget %d: post-recovery update: %v", budget, err)
	}
	got, err := e.ReadCommitted(0)
	if err != nil || string(got) != "post" {
		t.Fatalf("budget %d: post-recovery state: %q %v", budget, got, err)
	}
	return fired
}

// TestDoubleCrash exercises crash -> recover -> more work -> crash ->
// recover for every engine.
func TestDoubleCrash(t *testing.T) {
	for _, arch := range Architectures() {
		t.Run(arch, func(t *testing.T) {
			e, _ := memBuild(t, arch, 4)
			if err := e.Load(1, []byte("v0")); err != nil {
				t.Fatal(err)
			}
			if err := e.Update(func(tx *Txn) error { return tx.Write(1, []byte("v1")) }); err != nil {
				t.Fatal(err)
			}
			e.Crash()
			if err := e.Recover(); err != nil {
				t.Fatal(err)
			}
			if err := e.Update(func(tx *Txn) error { return tx.Write(1, []byte("v2")) }); err != nil {
				t.Fatal(err)
			}
			e.Crash()
			if err := e.Recover(); err != nil {
				t.Fatal(err)
			}
			got, err := e.ReadCommitted(1)
			if err != nil || string(got) != "v2" {
				t.Fatalf("after double crash: %q %v", got, err)
			}
		})
	}
}

// TestCrashReleasesParkedLocks parks sessions on a page another
// transaction holds, then crashes the engine: every parked Lock call
// returns lockmgr.ErrReleased, and after Recover new transactions lock and
// commit the page.
func TestCrashReleasesParkedLocks(t *testing.T) {
	const parked = 8
	for _, arch := range Architectures() {
		t.Run(arch, func(t *testing.T) {
			e, _ := memBuild(t, arch, 4)
			if err := e.Load(1, []byte("old")); err != nil {
				t.Fatal(err)
			}
			holder, err := e.Begin()
			if err != nil {
				t.Fatal(err)
			}
			if err := holder.Write(1, []byte("held")); err != nil {
				t.Fatal(err)
			}
			errs := make(chan error, parked)
			for i := 0; i < parked; i++ {
				tx, err := e.Begin()
				if err != nil {
					t.Fatal(err)
				}
				go func() {
					_, err := tx.Read(1)
					errs <- err
				}()
			}
			for e.locks.Waits() < parked {
				runtime.Gosched()
			}
			e.Crash()
			deadline := time.After(10 * time.Second)
			for i := 0; i < parked; i++ {
				select {
				case err := <-errs:
					if !errors.Is(err, lockmgr.ErrReleased) {
						t.Errorf("a parked Lock call returned %v after the crash, want ErrReleased", err)
					}
				case <-deadline:
					t.Fatalf("%d of %d parked Lock calls still wait 10 s after the crash", parked-i, parked)
				}
			}
			if err := e.Recover(); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 3; i++ {
				v := []byte(fmt.Sprintf("new%d", i))
				if err := e.Update(func(tx *Txn) error { return tx.Write(1, v) }); err != nil {
					t.Fatalf("commit %d after recovery: %v", i, err)
				}
			}
			if got, err := e.ReadCommitted(1); err != nil || string(got) != "new2" {
				t.Fatalf("page 1 after recovery and three commits: %q, %v", got, err)
			}
		})
	}
}
