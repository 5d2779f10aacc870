// Concurrent crash harness for the Guard: the proof that K workers
// driving one wrapped engine at once leave exactly the committed state
// their per-worker oracles predict, and that a power failure anywhere in
// the concurrent run is recovered all-or-nothing per transaction.
//
// TestConcurrentCrashRecovery runs a randomized concurrent schedule — K
// workers × M transactions with per-worker RNGs, disjoint write pages, and
// shared read-only pages — on all 7 canonical architectures under -race.
// Disjoint write sets make the final committed state
// interleaving-independent, so each worker's model is an exact oracle. One
// clean point audits the run as it stands and again after a crash and
// restart; the other points cut power mid-load (a shared hook that models
// whole-machine power failure across every store), recover, and audit per
// worker: a commit that returned is wholly present, a commit whose force
// failed is wholly present or wholly absent, and nothing else is.
// Sequential point-for-point equivalence of the Guard with the bare
// kernel, crashed at every sampled mutation, is equiv_test.go's job.
//
// Like equiv_test.go this lives in package engine_test (faultinj imports
// internal/engine).
package engine_test

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"repro/internal/engine"
	"repro/internal/faultinj"
	"repro/internal/pagestore"
	"repro/internal/sim"
)

const (
	ceSeed           = 503
	ceWorkers        = 4
	ceTxnsPerWorker  = 24
	cePagesPerWorker = 3
	ceSharedPages    = 2
	cePages          = ceSharedPages + ceWorkers*cePagesPerWorker
)

// ceWorkerPage maps worker w's j-th private page into the page space above
// the shared read-only range.
func ceWorkerPage(w, j int) int64 {
	return int64(ceSharedPages + w*cePagesPerWorker + j)
}

// ceAudit is what one worker's deterministic schedule left behind: its own
// oracle for the post-run (and post-recovery) audits.
type ceAudit struct {
	// model holds the last committed value of each page the worker owns.
	model map[int64][]byte
	// doubt holds the write set of a commit that returned a storage error
	// (power failed during the force): recovery may surface it fully
	// applied or fully reverted, never torn. Nil when no commit is in doubt.
	doubt map[int64][]byte
	// stopped reports the worker quit early on a storage error.
	stopped bool
	// badRead records a successful read of a shared page that returned
	// something other than the initial committed payload.
	badRead string
	commits int
	aborts  int
}

// runConcWorker executes worker w's schedule against e. The schedule is a
// pure function of (seed, w): payloads embed a worker-derived virtual id,
// never the engine-assigned tid, so two runs with different interleavings
// still write identical bytes. Writes touch only the worker's own pages;
// reads touch only the shared read-only range — so concurrent workers
// never conflict and the union of worker models is the exact committed
// state.
func runConcWorker(e *engine.Engine, w int, initial map[int64][]byte) *ceAudit {
	rng := sim.NewRNG(ceSeed + int64(w)*7919)
	a := &ceAudit{model: map[int64][]byte{}}
	for i := 0; i < ceTxnsPerWorker; i++ {
		vid := uint64(w)*1_000_000 + uint64(i) + 1
		tx, err := e.Begin()
		if err != nil {
			a.stopped = true
			return a
		}
		sp := int64(rng.Intn(ceSharedPages))
		got, err := tx.Read(sp)
		if err != nil {
			_ = tx.Abort()
			a.stopped = true
			return a
		}
		if want := initial[sp]; !bytes.Equal(got, want) {
			a.badRead = fmt.Sprintf("shared page %d = %q, want %q", sp, got, want)
		}
		writes := make(map[int64][]byte)
		n := rng.UniformInt(1, cePagesPerWorker)
		for j := 0; j < n; j++ {
			p := ceWorkerPage(w, rng.Intn(cePagesPerWorker))
			v := faultinj.Payload(p, vid, j)
			if err := tx.Write(p, v); err != nil {
				_ = tx.Abort()
				a.stopped = true
				return a
			}
			writes[p] = v
		}
		if rng.Bool(0.2) {
			if err := tx.Abort(); err != nil {
				a.stopped = true
				return a
			}
			a.aborts++
			continue
		}
		if err := tx.Commit(); err != nil {
			a.stopped = true
			a.doubt = writes
			return a
		}
		a.commits++
		for p, v := range writes {
			a.model[p] = v
		}
	}
	return a
}

// runConcWorkload fans the K workers out concurrently and joins them.
func runConcWorkload(e *engine.Engine, initial map[int64][]byte) []*ceAudit {
	audits := make([]*ceAudit, ceWorkers)
	var wg sync.WaitGroup
	for w := 0; w < ceWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			audits[w] = runConcWorker(e, w, initial)
		}(w)
	}
	wg.Wait()
	return audits
}

// powerFail returns a fault hook modeling whole-machine power loss: it
// fires at the k-th mutation it observes across every store it is
// installed on, and from then on fails every operation — reads included —
// so a multi-store engine (the WAL engine's data + log pair) cannot limp
// on with only one store down. The WAL's log force runs outside the
// guard's mutex, so its log writes may meet a steal's data write here at
// once: the closure's state is taken under its own mutex.
func powerFail(k int64) pagestore.FaultHook {
	var mu sync.Mutex
	var seen int64
	var down bool
	return func(op pagestore.Op, _ pagestore.PageID, _ int64) bool {
		mu.Lock()
		defer mu.Unlock()
		if down {
			return true
		}
		if op == pagestore.OpRead {
			return false
		}
		seen++
		if seen == k {
			down = true
		}
		return down
	}
}

// auditConcRecovered checks the recovered committed state against every
// worker's oracle: shared pages untouched, committed writes durable,
// losers absent, and an in-doubt commit applied all or nothing.
func auditConcRecovered(t *testing.T, e *engine.Engine, initial map[int64][]byte, audits []*ceAudit) {
	t.Helper()
	for p := int64(0); p < ceSharedPages; p++ {
		got, err := e.ReadCommitted(p)
		if err != nil {
			t.Errorf("shared page %d: %v", p, err)
			continue
		}
		if !bytes.Equal(got, initial[p]) {
			t.Errorf("shared page %d mutated: %q, want %q", p, got, initial[p])
		}
	}
	for w, a := range audits {
		if a.badRead != "" {
			t.Errorf("worker %d: %s", w, a.badRead)
		}
		applied, reverted := 0, 0
		for j := 0; j < cePagesPerWorker; j++ {
			p := ceWorkerPage(w, j)
			got, err := e.ReadCommitted(p)
			if err != nil {
				t.Errorf("worker %d page %d: %v", w, p, err)
				continue
			}
			if msg := faultinj.CheckPayload(got, p); msg != "" {
				t.Errorf("worker %d: checksum: %s", w, msg)
				continue
			}
			want, ok := a.model[p]
			if !ok {
				want = initial[p]
			}
			if dv, inDoubt := a.doubt[p]; inDoubt {
				switch {
				case bytes.Equal(got, dv):
					applied++
				case bytes.Equal(got, want):
					reverted++
				default:
					t.Errorf("worker %d page %d = %q, neither in-doubt %q nor committed %q",
						w, p, got, dv, want)
				}
				continue
			}
			if !bytes.Equal(got, want) {
				t.Errorf("worker %d page %d = %q, want %q", w, p, got, want)
			}
		}
		if applied > 0 && reverted > 0 {
			t.Errorf("worker %d: in-doubt commit torn (%d pages applied, %d reverted)",
				w, applied, reverted)
		}
	}
}

// ceCrashSpan pins, per target, the stable-mutation count of one
// representative concurrent run. TestConcurrentCrashRecovery places its
// crash points at fractions of it, so every subtest name — and a
// `go test -run TestConcurrentCrashRecovery/<target>/mutK` rerun of a
// failure — is the same on every run. The live count is not: the WAL
// targets' 4-page buffer pool steals whichever page the interleaving left
// coldest, so their count runs from a nearly serial run's (105 and 182)
// to almost twice that under the race detector (199 and 281). verselect
// restamps only when a commit overtakes an open transaction, so its count
// runs from a serial run's 293, its pin, to about 410.
var ceCrashSpan = map[string]int64{
	"wal-1stream":  128,
	"wal-3streams": 216,
	"shadow":       330,
	"ow-noundo":    356,
	"ow-noredo":    599,
	"verselect":    293,
	"difffile":     72,
}

// TestConcurrentCrashRecovery runs the concurrent schedule on the Guard
// once clean and then with the power cut at pinned mutation ordinals,
// recovers, and audits per worker that no transaction is half-durable.
// The clean point also checks that the pinned span still matches the
// workload; the audit is interleaving-independent by construction, so the
// nondeterminism of where exactly the power failure lands only widens the
// coverage.
func TestConcurrentCrashRecovery(t *testing.T) {
	for _, tg := range equivTargets() {
		t.Run(tg.name, func(t *testing.T) {
			span, ok := ceCrashSpan[tg.name]
			if !ok {
				t.Fatalf("no pinned crash span for target %q", tg.name)
			}
			clean := t.Run("clean", func(t *testing.T) {
				e, stores := tg.wrapped(t)
				initial, err := faultinj.LoadPages(e, cePages)
				if err != nil {
					t.Fatalf("load: %v", err)
				}
				before := mutations(stores)
				audits := runConcWorkload(e, initial)
				for w, a := range audits {
					if a.stopped {
						t.Fatalf("worker %d stopped without injection: %+v", w, a)
					}
					if a.commits+a.aborts != ceTxnsPerWorker {
						t.Errorf("worker %d: %d commits + %d aborts != %d txns",
							w, a.commits, a.aborts, ceTxnsPerWorker)
					}
				}
				// Every crash point but the last must land inside the run,
				// and the last must still fall in its second half.
				if muts := mutations(stores) - before; muts < 3*span/4 || muts > 2*span {
					t.Fatalf("clean run made %d stable mutations; pinned span %d is stale", muts, span)
				}
				auditConcRecovered(t, e, initial, audits)
				e.Crash()
				if err := e.Recover(); err != nil {
					t.Fatalf("recover: %v", err)
				}
				auditConcRecovered(t, e, initial, audits)
			})
			if !clean {
				return
			}

			points := []int64{1, span / 4, span / 2, 3 * span / 4, span}
			if testing.Short() {
				points = []int64{1, span / 2, span}
			}
			seen := map[int64]bool{}
			for i, k := range points {
				if k < 1 || seen[k] {
					continue
				}
				seen[k] = true
				t.Run(fmt.Sprintf("mut%d", k), func(t *testing.T) {
					t.Logf("point %d of %d: power cut at mutation %d of the pinned span %d", i, len(points), k, span)
					e, stores := tg.wrapped(t)
					initial, err := faultinj.LoadPages(e, cePages)
					if err != nil {
						t.Fatalf("load: %v", err)
					}
					hook := powerFail(k)
					for _, s := range stores {
						s.SetFaultHook(hook)
					}
					audits := runConcWorkload(e, initial)
					// Power restored: disarm the hook, then crash-recover.
					for _, s := range stores {
						s.SetFaultHook(nil)
					}
					e.Crash()
					if err := e.Recover(); err != nil {
						t.Fatalf("recover: %v", err)
					}
					auditConcRecovered(t, e, initial, audits)

					// Liveness: the recovered engine accepts new work.
					v := faultinj.Payload(0, 1<<40, 0)
					if err := e.Update(func(tx *engine.Txn) error { return tx.Write(0, v) }); err != nil {
						t.Fatalf("post-recovery update: %v", err)
					}
					if got, err := e.ReadCommitted(0); err != nil || !bytes.Equal(got, v) {
						t.Fatalf("post-recovery read = %q, %v (want %q)", got, err, v)
					}
				})
			}
		})
	}
}
