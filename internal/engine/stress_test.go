// Concurrency stress tests for the thread-safe wrapper layer. The pure
// kernels are single-threaded by contract; everything concurrent must go
// through engine.Engine and its Guard. These tests hammer every
// architecture with parallel transactions while maintenance operations
// (checkpoints, differential merges) and stats readers run against
// the same Guard, then audit the surviving state. They are most meaningful
// under the race detector (make ci runs `go test -race ./...`).
package engine_test

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/engine"
	"repro/internal/faultinj"
	"repro/internal/obs/live"
	"repro/internal/sim"
)

const (
	stressPages   = 8
	stressWorkers = 6
	stressTxns    = 30 // per worker
)

// stressWorker runs txns read-modify-write transactions against e, each
// reading then overwriting 1–2 pages with self-describing payloads.
// Deadlock victims are retried by Update; any other error is fatal.
func stressWorker(t *testing.T, e *engine.Engine, seed int64, txns int) {
	rng := sim.NewRNG(seed)
	for i := 0; i < txns; i++ {
		err := e.Update(func(tx *engine.Txn) error {
			n := rng.UniformInt(1, 2)
			for j := 0; j < n; j++ {
				p := int64(rng.Intn(stressPages))
				if _, err := tx.Read(p); err != nil {
					return err
				}
				if err := tx.Write(p, faultinj.Payload(p, tx.ID(), j)); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Errorf("worker txn %d: %v", i, err)
			return
		}
	}
}

// TestWrapperStress runs parallel transaction workers against every wrapped
// architecture while a maintenance goroutine drives Guard.Checkpoint and
// Guard.Merge and a reader polls Guard stats, then crashes, recovers, and
// audits the committed state.
func TestWrapperStress(t *testing.T) {
	for _, tg := range equivTargets() {
		t.Run(tg.name, func(t *testing.T) {
			t.Parallel()
			e, _ := tg.wrapped(t)
			gm := live.NewGuardMetrics(live.Wall())
			e.Guard().SetMetrics(gm)
			if _, err := faultinj.LoadPages(e, stressPages); err != nil {
				t.Fatalf("load: %v", err)
			}

			var wg sync.WaitGroup
			stop := make(chan struct{})

			// Maintenance: checkpoints and merges race the workers through the
			// Guard. Kernels without the operation return ErrUnsupported; the
			// differential kernel refuses to merge unless quiescent. Both are
			// expected here — what matters is that concurrent maintenance never
			// corrupts state or trips the race detector.
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					if err := e.Guard().Checkpoint(); err != nil && !errors.Is(err, engine.ErrUnsupported) {
						t.Errorf("checkpoint: %v", err)
						return
					}
					if err := e.Guard().Merge(); err == nil {
						continue // quiescent instant: the merge landed
					}
				}
			}()

			// Reader: stats and contention snapshots must be safe to take
			// mid-flight.
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					_ = e.Guard().Stats()
					_ = gm.Wait(live.GuardCommit).Snap()
				}
			}()

			var workers sync.WaitGroup
			for w := 0; w < stressWorkers; w++ {
				workers.Add(1)
				go func(seed int64) {
					defer workers.Done()
					stressWorker(t, e, seed, stressTxns)
				}(int64(1985 + w))
			}
			workers.Wait()
			close(stop)
			wg.Wait()
			if t.Failed() {
				return
			}

			// Quiesced: the Guard's books must balance — every transaction the
			// kernel began either committed or aborted.
			begins, commitOps, abortOps := gm.Wait(live.GuardBegin).Count(),
				gm.Wait(live.GuardCommit).Count(), gm.Wait(live.GuardAbort).Count()
			if begins != commitOps+abortOps {
				t.Errorf("unbalanced guard ops: begins=%d commits=%d aborts=%d",
					begins, commitOps, abortOps)
			}
			commits, _, _ := e.Stats()
			if want := int64(stressWorkers * stressTxns); commits != want {
				t.Errorf("engine commits = %d, want %d", commits, want)
			}

			// Power-cycle and audit: every page must hold a sound committed
			// payload after recovery.
			e.Crash()
			if err := e.Recover(); err != nil {
				t.Fatalf("recover: %v", err)
			}
			for p := int64(0); p < stressPages; p++ {
				v, err := e.ReadCommitted(p)
				if err != nil {
					t.Fatalf("page %d: %v", p, err)
				}
				if msg := faultinj.CheckPayload(v, p); msg != "" {
					t.Errorf("after stress: %s", msg)
				}
			}
		})
	}
}

// TestGuardSerializesDirectCalls bypasses the 2PL layer entirely and slams
// raw Guard calls from many goroutines: distinct transactions begin, write
// disjoint pages, and commit with no locks held. The Guard's single mutex is
// the only thing keeping the single-threaded kernel sane.
func TestGuardSerializesDirectCalls(t *testing.T) {
	for _, tg := range equivTargets() {
		t.Run(tg.name, func(t *testing.T) {
			t.Parallel()
			e, _ := tg.wrapped(t)
			g := e.Guard()
			if _, err := faultinj.LoadPages(e, stressPages); err != nil {
				t.Fatalf("load: %v", err)
			}
			var wg sync.WaitGroup
			for w := 0; w < stressPages; w++ {
				wg.Add(1)
				go func(p int64) {
					defer wg.Done()
					tid := uint64(1000 + p) // disjoint from engine-assigned ids
					if err := g.Begin(tid); err != nil {
						t.Errorf("begin %d: %v", tid, err)
						return
					}
					if _, err := g.Read(tid, p); err != nil {
						t.Errorf("read %d: %v", tid, err)
						return
					}
					if err := g.Write(tid, p, faultinj.Payload(p, tid, 0)); err != nil {
						t.Errorf("write %d: %v", tid, err)
						return
					}
					if err := g.Commit(tid); err != nil {
						t.Errorf("commit %d: %v", tid, err)
					}
				}(int64(w))
			}
			wg.Wait()
			if t.Failed() {
				return
			}
			e.Crash()
			if err := e.Recover(); err != nil {
				t.Fatalf("recover: %v", err)
			}
			for p := int64(0); p < stressPages; p++ {
				v, err := g.ReadCommitted(p)
				if err != nil {
					t.Fatalf("page %d: %v", p, err)
				}
				want := fmt.Sprintf("p%d.t%d.n0.", p, 1000+p)
				if msg := faultinj.CheckPayload(v, p); msg != "" {
					t.Errorf("%s", msg)
				} else if string(v[:len(want)]) != want {
					t.Errorf("page %d = %q, want prefix %q", p, v, want)
				}
			}
		})
	}
}
