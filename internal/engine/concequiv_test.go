// Concurrent-equivalence harness for the relaxed concurrency envelope
// (group commit + striped read latching): the proof that breaking the
// single Guard mutex changed performance and nothing else.
//
// Three layers of evidence, all across the 7 canonical architectures and
// all meaningful under -race:
//
//  1. TestConcurrentEquivalenceClean replays the same logical schedule —
//     K workers × M transactions with per-worker RNGs, disjoint write
//     pages, and shared read-only pages — through a relaxed guard and a
//     plain-Guard oracle, and demands identical committed page bytes
//     (crc-checked), identical per-worker models, and identical op
//     counters. Disjoint write sets make the final committed state
//     interleaving-independent, which is what makes the concurrent
//     comparison well-defined.
//
//  2. TestConcurrentCrashRecovery cuts power mid-load (a shared hook that
//     models whole-machine power failure across every store) under full
//     concurrency, recovers, and audits the paper's claims per worker: a
//     group-committed transaction is never half-durable — a commit whose
//     force completed is wholly present, a batch member whose force never
//     completed is wholly in-doubt or wholly absent, and a member rolled
//     back by a failing batch (ErrGroupAborted) is wholly absent.
//
//  3. TestSequentialCrashEquivalenceGroupCommit drives the deterministic
//     faultinj script through a group-commit guard and a plain guard with
//     a crash injected at the same mutation ordinal, and demands
//     byte-identical outcomes, in-doubt sets, recovered pages, and kernel
//     counters — the strongest point-for-point equivalence, possible
//     sequentially because group commit adds no kernel traffic.
//
// Like equiv_test.go this lives in package engine_test (faultinj imports
// internal/engine).
package engine_test

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/faultinj"
	"repro/internal/obs/live"
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

// ceRelaxedPolicy is the envelope under test in the concurrent suites.
var ceRelaxedPolicy = engine.GroupCommitPolicy{MaxBatch: ceWorkers, MaxWait: time.Millisecond}

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
	// groupAborted reports that the final commit was rolled back because a
	// preceding member of its batch failed; its writes must be absent.
	groupAborted bool
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
			if errors.Is(err, engine.ErrGroupAborted) {
				a.groupAborted = true
			} else {
				a.doubt = writes
			}
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

// TestConcurrentEquivalenceClean is the headline equivalence proof: the
// relaxed guard (group commit + striped reads) and the plain-Guard oracle
// run the same concurrent schedule and must be indistinguishable in every
// observable — committed page bytes, per-worker models, op counters — with
// op counters additionally scraped concurrently and required monotone.
func TestConcurrentEquivalenceClean(t *testing.T) {
	for _, tg := range equivTargets() {
		t.Run(tg.name, func(t *testing.T) {
			relaxed, _ := tg.wrapped(t)
			plain, _ := tg.wrapped(t)
			gm := live.NewGuardMetrics(live.Wall())
			relaxed.Guard().SetMetrics(gm)
			relaxed.Guard().SetGroupCommit(ceRelaxedPolicy, nil)
			relaxed.Guard().SetReadStripes(8)

			rInit, err := faultinj.LoadPages(relaxed, cePages)
			if err != nil {
				t.Fatalf("relaxed load: %v", err)
			}
			pInit, err := faultinj.LoadPages(plain, cePages)
			if err != nil {
				t.Fatalf("plain load: %v", err)
			}

			// Monotone-counter scraper rides along with the relaxed run.
			stop := make(chan struct{})
			var scraper sync.WaitGroup
			scraper.Add(1)
			go func() {
				defer scraper.Done()
				last := map[string]int64{}
				for {
					for k, v := range relaxed.Guard().OpCounts() {
						if v < last[k] {
							t.Errorf("relaxed op counter %q regressed: %d -> %d", k, last[k], v)
							return
						}
						last[k] = v
					}
					select {
					case <-stop:
						return
					default:
					}
				}
			}()
			rAudits := runConcWorkload(relaxed, rInit)
			close(stop)
			scraper.Wait()
			pAudits := runConcWorkload(plain, pInit)

			totalCommits := 0
			for w := 0; w < ceWorkers; w++ {
				for side, a := range map[string]*ceAudit{"relaxed": rAudits[w], "plain": pAudits[w]} {
					if a.stopped || a.doubt != nil || a.groupAborted {
						t.Fatalf("%s worker %d did not run clean: %+v", side, w, a)
					}
					if a.badRead != "" {
						t.Errorf("%s worker %d: %s", side, w, a.badRead)
					}
					if a.commits+a.aborts != ceTxnsPerWorker {
						t.Errorf("%s worker %d: %d commits + %d aborts != %d txns",
							side, w, a.commits, a.aborts, ceTxnsPerWorker)
					}
				}
				if !reflect.DeepEqual(rAudits[w].model, pAudits[w].model) {
					t.Errorf("worker %d models diverge:\n  relaxed: %v\n  plain:   %v",
						w, rAudits[w].model, pAudits[w].model)
				}
				totalCommits += rAudits[w].commits
			}

			// Committed state, page by page, both guards, crc-checked.
			model := map[int64][]byte{}
			for p, v := range rInit {
				model[p] = v
			}
			for _, a := range rAudits {
				for p, v := range a.model {
					model[p] = v
				}
			}
			for p := int64(0); p < cePages; p++ {
				rv, rerr := relaxed.ReadCommitted(p)
				pv, perr := plain.ReadCommitted(p)
				if rerr != nil || perr != nil {
					t.Fatalf("page %d: read errors relaxed=%v plain=%v", p, rerr, perr)
				}
				if !bytes.Equal(rv, pv) {
					t.Errorf("page %d diverges: relaxed=%q plain=%q", p, rv, pv)
				}
				if !bytes.Equal(rv, model[p]) {
					t.Errorf("page %d = %q, want committed model %q", p, rv, model[p])
				}
				if msg := faultinj.CheckPayload(rv, p); msg != "" {
					t.Errorf("relaxed state corrupt: %s", msg)
				}
			}

			// The relaxed guard must count exactly what the oracle counts.
			rOps, pOps := relaxed.Guard().OpCounts(), plain.Guard().OpCounts()
			if !reflect.DeepEqual(rOps, pOps) {
				t.Errorf("op counters diverge:\n  relaxed: %v\n  plain:   %v", rOps, pOps)
			}

			// And the batching/caching machinery must actually have run:
			// every commit passed through a flushed batch, and the shared
			// read-only pages were served from the stripe cache.
			if got := gm.CommitBatchSize().Sum(); got != float64(totalCommits) {
				t.Errorf("batched commits = %v, want %d (every commit in exactly one batch)",
					got, totalCommits)
			}
			if gm.ReadCacheHits() == 0 {
				t.Error("stripe cache served no reads; striped path not exercised")
			}
		})
	}
}

// powerFail returns a fault hook modeling whole-machine power loss: it
// fires at the k-th mutation it observes across every store it is
// installed on, and from then on fails every operation — reads included —
// so a multi-store engine (the WAL engine's data + log pair) cannot limp
// on with only one store down. All stable-storage traffic is serialized
// under the guard's kernel mutex, so the closure needs no further locking.
func powerFail(k int64) pagestore.FaultHook {
	var seen int64
	var down bool
	return func(op pagestore.Op, _ pagestore.PageID, _ int64) bool {
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
// losers and group-aborted members absent, and an in-doubt commit applied
// all or nothing.
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
				t.Errorf("worker %d page %d = %q, want %q (groupAborted=%v)",
					w, p, got, want, a.groupAborted)
			}
		}
		if applied > 0 && reverted > 0 {
			t.Errorf("worker %d: in-doubt group commit torn (%d pages applied, %d reverted)",
				w, applied, reverted)
		}
	}
}

// ceCrashSpan pins, per target, the stable-mutation count of one
// representative concurrent probe run. TestConcurrentCrashRecovery places
// its crash points at fractions of it, so every subtest name — and a
// `go test -run TestConcurrentCrashRecovery/<target>/mutK` rerun of a
// failure — is the same on every run. The live count is not: group-commit
// batching moves the WAL targets' log traffic by a few percent from run to
// run.
var ceCrashSpan = map[string]int64{
	"wal-1stream":  191,
	"wal-3streams": 242,
	"shadow":       330,
	"ow-noundo":    356,
	"ow-noredo":    599,
	"verselect":    399,
	"difffile":     72,
}

// TestConcurrentCrashRecovery cuts power at pinned mutation ordinals
// while the relaxed guard is under full concurrent load, recovers, and
// audits per worker that no group-committed transaction is half-durable.
// A concurrent probe run checks that the pinned span still matches the
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
			// Probe: how many stable mutations does one concurrent run make?
			probe, stores := tg.wrapped(t)
			probe.Guard().SetGroupCommit(ceRelaxedPolicy, nil)
			probe.Guard().SetReadStripes(8)
			initial, err := faultinj.LoadPages(probe, cePages)
			if err != nil {
				t.Fatalf("probe load: %v", err)
			}
			ctr := &faultinj.Counter{}
			hook := ctr.Hook()
			for _, s := range stores {
				s.SetFaultHook(hook)
			}
			for w, a := range runConcWorkload(probe, initial) {
				if a.stopped {
					t.Fatalf("probe worker %d crashed without injection", w)
				}
			}
			// Every crash point but the last must land inside the run, and
			// the last must still fall in its final quarter.
			if muts := ctr.Mutations(); muts < 3*span/4 || muts > 4*span/3 {
				t.Fatalf("probe run made %d stable mutations; pinned span %d is stale", muts, span)
			}

			points := []int64{1, span / 4, span / 2, 3 * span / 4, span}
			if testing.Short() {
				points = []int64{1, span / 2, span}
			}
			seen := map[int64]bool{}
			for _, k := range points {
				if k < 1 || seen[k] {
					continue
				}
				seen[k] = true
				t.Run(fmt.Sprintf("mut%d", k), func(t *testing.T) {
					e, stores := tg.wrapped(t)
					e.Guard().SetGroupCommit(ceRelaxedPolicy, nil)
					e.Guard().SetReadStripes(8)
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

					// Liveness: the recovered relaxed guard accepts new work
					// through the group-commit path.
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

// TestSequentialCrashEquivalenceGroupCommit injects a crash at the same
// mutation ordinal into a plain guard and a group-commit guard running the
// deterministic faultinj script, and demands identical outcomes, identical
// in-doubt sets, byte-identical recovered pages, and identical kernel
// counters. Group commit adds no kernel traffic, so the two runs share
// mutation ordinals exactly; striped reads are left off here because the
// cache legitimately changes kernel read traffic (and with it buffer-pool
// eviction), which would shift ordinals.
func TestSequentialCrashEquivalenceGroupCommit(t *testing.T) {
	stride := int64(5)
	if testing.Short() {
		stride = 11
	}
	for _, tg := range equivTargets() {
		t.Run(tg.name, func(t *testing.T) {
			probe, stores := tg.wrapped(t)
			model, err := faultinj.LoadPages(probe, equivPages)
			if err != nil {
				t.Fatalf("probe load: %v", err)
			}
			ctr := &faultinj.Counter{}
			hook := ctr.Hook()
			for _, s := range stores {
				s.SetFaultHook(hook)
			}
			if out := faultinj.RunScript(probe, model, equivSeed, equivPages, equivTxns); out.Crashed {
				t.Fatal("probe run crashed without injection")
			}
			muts := ctr.Mutations()

			points := []int64{1}
			for k := stride; k < muts; k += stride {
				points = append(points, k)
			}
			points = append(points, muts)

			for _, k := range points {
				t.Run(fmt.Sprintf("mut%d", k), func(t *testing.T) {
					plain, pstores := tg.wrapped(t)
					relaxed, rstores := tg.wrapped(t)
					relaxed.Guard().SetGroupCommit(engine.GroupCommitPolicy{MaxBatch: 4}, nil)
					pModel, err := faultinj.LoadPages(plain, equivPages)
					if err != nil {
						t.Fatalf("plain load: %v", err)
					}
					rModel, err := faultinj.LoadPages(relaxed, equivPages)
					if err != nil {
						t.Fatalf("relaxed load: %v", err)
					}
					phook := faultinj.CrashAtMutation(k)
					for _, s := range pstores {
						s.SetFaultHook(phook)
					}
					rhook := faultinj.CrashAtMutation(k)
					for _, s := range rstores {
						s.SetFaultHook(rhook)
					}
					pOut := faultinj.RunScript(plain, pModel, equivSeed, equivPages, equivTxns)
					rOut := faultinj.RunScript(relaxed, rModel, equivSeed, equivPages, equivTxns)
					compareOutcomes(t, pOut, rOut)

					plain.Crash()
					relaxed.Crash()
					if err := plain.Recover(); err != nil {
						t.Fatalf("plain recover: %v", err)
					}
					if err := relaxed.Recover(); err != nil {
						t.Fatalf("relaxed recover: %v", err)
					}
					for p := int64(0); p < equivPages; p++ {
						pv, perr := plain.ReadCommitted(p)
						rv, rerr := relaxed.ReadCommitted(p)
						if (perr == nil) != (rerr == nil) {
							t.Fatalf("page %d: read errors diverge: plain=%v relaxed=%v", p, perr, rerr)
						}
						if perr != nil {
							continue
						}
						if !bytes.Equal(pv, rv) {
							t.Errorf("page %d: recovered bytes diverge: plain=%q relaxed=%q", p, pv, rv)
						}
						if msg := faultinj.CheckPayload(pv, p); msg != "" {
							t.Errorf("recovered state corrupt: %s", msg)
						}
					}
					ps, rs := plain.Guard().Stats(), relaxed.Guard().Stats()
					if !reflect.DeepEqual(ps, rs) {
						t.Errorf("kernel counters diverge:\n  plain:   %v\n  relaxed: %v", ps, rs)
					}
				})
			}
		})
	}
}
