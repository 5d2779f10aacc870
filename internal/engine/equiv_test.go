// Differential equivalence tests for the kernel/wrapper split: the same
// seeded faultinj script is replayed twice per recovery architecture — once
// straight into the pure, single-threaded kernel and once through the
// thread-safe engine (Guard + 2PL) — and the two runs must be
// indistinguishable: identical script outcomes, identical recovered page
// bytes, identical kernel counters, identical restart journals. This holds
// both for clean runs and for runs cut down by an injected crash at every
// sampled stable-storage mutation, and both for the script as written (one
// transaction at a time) and for the same transactions replayed in commit
// groups (several in flight at once, committing back to back).
//
// The test lives in package engine_test because faultinj imports
// internal/engine; an in-package test would be an import cycle.
package engine_test

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/engine"
	"repro/internal/faultinj"
	"repro/internal/obs"
	"repro/internal/pagestore"
	"repro/internal/sim"
)

const (
	equivSeed  = 1985
	equivPages = 6
	equivTxns  = 25
)

// equivTarget builds one recovery architecture through engine.Build, over
// fresh memory stores; every stable store is returned so fault hooks cover
// the WAL engines' separate log store.
type equivTarget struct{ name string }

func equivTargets() []equivTarget {
	var out []equivTarget
	for _, name := range engine.Architectures() {
		out = append(out, equivTarget{name})
	}
	return out
}

// wrapped builds the thread-safe engine.
func (tg equivTarget) wrapped(t *testing.T) (*engine.Engine, []*pagestore.Store) {
	e, stores, err := engine.Build(tg.name, 4, func(_ string, pageSize int) (*pagestore.Store, error) {
		return pagestore.New(pageSize), nil
	})
	if err != nil {
		t.Fatalf("Build(%s): %v", tg.name, err)
	}
	return e, stores
}

// kernel builds the bare kernel: a fresh engine's, taken from its Guard,
// the engine itself never used.
func (tg equivTarget) kernel(t *testing.T) (engine.RecoveryManager, []*pagestore.Store) {
	e, stores := tg.wrapped(t)
	return e.Guard().Unwrap(), stores
}

// loadKernelPages is faultinj.LoadPages for a bare kernel: identical
// payloads, identical model map.
func loadKernelPages(rm engine.RecoveryManager, pages int) (map[int64][]byte, error) {
	model := make(map[int64][]byte, pages)
	for p := int64(0); p < int64(pages); p++ {
		v := faultinj.Payload(p, 0, 0)
		if err := rm.Load(p, v); err != nil {
			return nil, err
		}
		model[p] = v
	}
	return model, nil
}

// runKernelScript is faultinj.RunScript with the engine layer peeled away:
// the same seeded RNG drives the same Begin/Write/Commit/Abort sequence
// straight into the pure kernel, with sequential transaction ids exactly as
// the engine's id counter would assign them. Any divergence between this
// and a wrapped run is by construction a behavioral difference introduced
// by the wrapper.
func runKernelScript(rm engine.RecoveryManager, model map[int64][]byte, seed int64, pages, maxTxns int) *faultinj.Outcome {
	rng := sim.NewRNG(seed)
	out := &faultinj.Outcome{Model: model}
	var tid uint64
	for i := 0; i < maxTxns; i++ {
		tid++
		if err := rm.Begin(tid); err != nil {
			out.Crashed = true
			return out
		}
		writes := make(map[int64][]byte)
		n := rng.UniformInt(1, 3)
		for j := 0; j < n; j++ {
			p := int64(rng.Intn(pages))
			v := faultinj.Payload(p, tid, j)
			if err := rm.Write(tid, p, v); err != nil {
				_ = rm.Abort(tid) // mirrors RunScript's best-effort abort
				out.Crashed = true
				return out
			}
			writes[p] = v
		}
		if rng.Bool(0.2) {
			if err := rm.Abort(tid); err != nil {
				out.Crashed = true
				return out
			}
			continue
		}
		if err := rm.Commit(tid); err != nil {
			out.Doubt = writes
			out.Crashed = true
			return out
		}
		out.Commits++
		for p, v := range writes {
			out.Model[p] = v
		}
	}
	return out
}

// mutations sums the stable mutations (writes and deletes) the stores have
// made so far: the ordinals pagestore.CrashAtMutation counts.
func mutations(stores []*pagestore.Store) int64 {
	var n int64
	for _, s := range stores {
		_, w := s.Stats()
		n += w
	}
	return n
}

// kernelStats mirrors Guard.Stats for the bare kernel side.
func kernelStats(rm engine.RecoveryManager) map[string]int64 {
	if ss, ok := rm.(engine.StatsSource); ok {
		return ss.Stats()
	}
	return map[string]int64{}
}

// compareOutcomes asserts the script saw the same world through both layers.
func compareOutcomes(t *testing.T, pure, wrapped *faultinj.Outcome) {
	t.Helper()
	if pure.Crashed != wrapped.Crashed {
		t.Errorf("crashed: kernel=%v wrapper=%v", pure.Crashed, wrapped.Crashed)
	}
	if pure.Commits != wrapped.Commits {
		t.Errorf("commits: kernel=%d wrapper=%d", pure.Commits, wrapped.Commits)
	}
	if !reflect.DeepEqual(pure.Doubt, wrapped.Doubt) {
		t.Errorf("in-doubt write sets differ: kernel=%v wrapper=%v", pure.Doubt, wrapped.Doubt)
	}
	if !reflect.DeepEqual(pure.Model, wrapped.Model) {
		t.Errorf("committed models differ: kernel=%v wrapper=%v", pure.Model, wrapped.Model)
	}
}

// compareRecovered crashes and recovers both layers, then asserts identical
// committed page bytes (all of them sound payloads), identical kernel
// counters and identical journals of the restart: the same redo, undo and
// replay decisions in the same order.
func compareRecovered(t *testing.T, rm engine.RecoveryManager, e *engine.Engine, pages int) {
	t.Helper()
	rm.Crash()
	e.Crash()
	kj, wj := obs.NewJournal(), obs.NewJournal()
	rm.(engine.Journaled).SetJournal(kj)
	if err := e.Guard().SetJournal(wj); err != nil {
		t.Fatal(err)
	}
	if err := rm.Recover(); err != nil {
		t.Fatalf("kernel recover: %v", err)
	}
	if err := e.Recover(); err != nil {
		t.Fatalf("wrapper recover: %v", err)
	}
	for p := int64(0); p < int64(pages); p++ {
		kv, kerr := rm.ReadCommitted(p)
		wv, werr := e.ReadCommitted(p)
		if (kerr == nil) != (werr == nil) {
			t.Fatalf("page %d: read errors diverge: kernel=%v wrapper=%v", p, kerr, werr)
		}
		if kerr != nil {
			continue
		}
		if !bytes.Equal(kv, wv) {
			t.Errorf("page %d: recovered bytes diverge: kernel=%q wrapper=%q", p, kv, wv)
		}
		if msg := faultinj.CheckPayload(kv, p); msg != "" {
			t.Errorf("recovered state corrupt: %s", msg)
		}
	}
	ks, ws := kernelStats(rm), e.Guard().Stats()
	if !reflect.DeepEqual(ks, ws) {
		t.Errorf("kernel counters diverge:\n  kernel:  %v\n  wrapper: %v", ks, ws)
	}
	if kr, wr := kj.Records(), wj.Records(); len(kr) == 0 || !reflect.DeepEqual(kr, wr) {
		t.Errorf("restart journals diverge or are empty:\n  kernel:  %v\n  wrapper: %v", kr, wr)
	}
}

// groupTxn is one transaction of the grouped script: its writes in order
// and whether it ends in a voluntary abort.
type groupTxn struct {
	pages []int64
	abort bool
}

// groupPlan draws the faultinj script's transaction mix (the same RNG
// draws, in the same order, as faultinj.RunScript) and cuts it into commit
// groups: runs of up to four consecutive transactions with pairwise
// disjoint write sets, so every member of a group can hold its exclusive
// locks at once on one goroutine.
func groupPlan(seed int64, pages, maxTxns int) [][]groupTxn {
	rng := sim.NewRNG(seed)
	var plan [][]groupTxn
	var group []groupTxn
	held := map[int64]bool{}
	for i := 0; i < maxTxns; i++ {
		var tx groupTxn
		n := rng.UniformInt(1, 3)
		for j := 0; j < n; j++ {
			tx.pages = append(tx.pages, int64(rng.Intn(pages)))
		}
		tx.abort = rng.Bool(0.2)
		clash := len(group) == 4
		for _, p := range tx.pages {
			clash = clash || held[p]
		}
		if clash {
			plan = append(plan, group)
			group, held = nil, map[int64]bool{}
		}
		group = append(group, tx)
		for _, p := range tx.pages {
			held[p] = true
		}
	}
	if len(group) > 0 {
		plan = append(plan, group)
	}
	return plan
}

// groupDriver is the transaction surface runGroupPlan drives: the bare
// kernel (sequential ids, exactly as the engine's counter assigns them) or
// the wrapped engine (Guard + 2PL).
type groupDriver interface {
	begin() (uint64, error)
	write(tid uint64, p int64, v []byte) error
	commit(tid uint64) error
	abort(tid uint64) error
}

type kernelDriver struct {
	rm  engine.RecoveryManager
	tid uint64
}

func (d *kernelDriver) begin() (uint64, error) {
	d.tid++
	return d.tid, d.rm.Begin(d.tid)
}
func (d *kernelDriver) write(tid uint64, p int64, v []byte) error { return d.rm.Write(tid, p, v) }
func (d *kernelDriver) commit(tid uint64) error                   { return d.rm.Commit(tid) }
func (d *kernelDriver) abort(tid uint64) error                    { return d.rm.Abort(tid) }

type engineDriver struct {
	e   *engine.Engine
	txs map[uint64]*engine.Txn
}

func (d *engineDriver) begin() (uint64, error) {
	tx, err := d.e.Begin()
	if err != nil {
		return 0, err
	}
	d.txs[tx.ID()] = tx
	return tx.ID(), nil
}
func (d *engineDriver) write(tid uint64, p int64, v []byte) error { return d.txs[tid].Write(p, v) }
func (d *engineDriver) commit(tid uint64) error                   { return d.txs[tid].Commit() }
func (d *engineDriver) abort(tid uint64) error                    { return d.txs[tid].Abort() }

// runGroupPlan executes plan group by group: every member begins, the
// members' writes interleave round-robin, and then the members finish back
// to back in order, so each group's commits arrive together with the rest
// of the group still in flight. The run stops at the first storage error
// (the injected crash) and leaves the open members to restart recovery.
func runGroupPlan(d groupDriver, model map[int64][]byte, plan [][]groupTxn) *faultinj.Outcome {
	out := &faultinj.Outcome{Model: model}
	for _, group := range plan {
		tids := make([]uint64, len(group))
		writes := make([]map[int64][]byte, len(group))
		for i := range group {
			tid, err := d.begin()
			if err != nil {
				out.Crashed = true
				return out
			}
			tids[i], writes[i] = tid, map[int64][]byte{}
		}
		for j := 0; j < 3; j++ {
			for i, tx := range group {
				if j >= len(tx.pages) {
					continue
				}
				p := tx.pages[j]
				v := faultinj.Payload(p, tids[i], j)
				if err := d.write(tids[i], p, v); err != nil {
					out.Crashed = true
					return out
				}
				writes[i][p] = v
			}
		}
		for i, tx := range group {
			if tx.abort {
				if err := d.abort(tids[i]); err != nil {
					out.Crashed = true
					return out
				}
				continue
			}
			if err := d.commit(tids[i]); err != nil {
				out.Doubt = writes[i]
				out.Crashed = true
				return out
			}
			out.Commits++
			for p, v := range writes[i] {
				out.Model[p] = v
			}
		}
	}
	return out
}

// seqCrashMutations pins the stable mutations (after the initial load) of
// each target's crash-free kernel run of the faultinj script, the probe of
// TestKernelWrapperEquivalenceUnderCrashes; groupCrashMutations pins those
// of the Guard's grouped run, the probe of
// TestSequentialCrashEquivalenceGroupCommit. The crash points, and so the
// subtests, follow from these counts and the stride: a kernel change that
// adds or removes stable writes fails the pin instead of silently moving,
// adding or dropping subtests.
var seqCrashMutations = map[string]int64{
	"wal-1stream":  37,
	"wal-3streams": 63,
	"shadow":       87,
	"ow-noundo":    112,
	"ow-noredo":    162,
	"verselect":    73,
	"difffile":     20,
}

var groupCrashMutations = map[string]int64{
	"wal-1stream":  40,
	"wal-3streams": 64,
	"shadow":       87,
	"ow-noundo":    112,
	"ow-noredo":    162,
	"verselect":    73,
	"difffile":     20,
}

// crashPoints samples the mutation ordinals 1..muts every stride, with the
// first and the last always in.
func crashPoints(muts, stride int64) []int64 {
	points := []int64{1}
	for k := stride; k < muts; k += stride {
		points = append(points, k)
	}
	return append(points, muts)
}

// TestSequentialCrashEquivalenceGroupCommit replays the script's
// transactions in commit groups — several transactions in flight at once,
// committing back to back — through the bare kernel and through the Guard,
// with a crash injected at the same mutation ordinal in both. The two runs
// must agree on outcomes, in-doubt sets, recovered page bytes and kernel
// counters, and the recovered state must pass the sweep's audit: every
// returned commit durable, every open or aborted group member absent, an
// in-doubt commit applied all or nothing.
func TestSequentialCrashEquivalenceGroupCommit(t *testing.T) {
	plan := groupPlan(equivSeed, equivPages, equivTxns)
	grouped := 0
	for _, g := range plan {
		if len(g) > 1 {
			grouped++
		}
	}
	if grouped == 0 {
		t.Fatalf("plan has no group of two or more transactions: %v", plan)
	}
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
			before := mutations(stores)
			if out := runGroupPlan(&engineDriver{probe, map[uint64]*engine.Txn{}}, model, plan); out.Crashed {
				t.Fatal("probe run crashed without injection")
			}
			muts := mutations(stores) - before
			if want := groupCrashMutations[tg.name]; muts != want {
				t.Fatalf("probe run made %d stable mutations; pinned %d", muts, want)
			}

			points := crashPoints(muts, stride)
			for i, k := range points {
				t.Run(fmt.Sprintf("mut%d", k), func(t *testing.T) {
					t.Logf("point %d of %d: power cut at mutation %d of %d", i, len(points), k, muts)
					rm, kstores := tg.kernel(t)
					e, wstores := tg.wrapped(t)
					kmodel, err := loadKernelPages(rm, equivPages)
					if err != nil {
						t.Fatalf("kernel load: %v", err)
					}
					wmodel, err := faultinj.LoadPages(e, equivPages)
					if err != nil {
						t.Fatalf("wrapper load: %v", err)
					}
					khook := pagestore.CrashAtMutation(k)
					for _, s := range kstores {
						s.SetFaultHook(khook)
					}
					whook := pagestore.CrashAtMutation(k)
					for _, s := range wstores {
						s.SetFaultHook(whook)
					}
					pure := runGroupPlan(&kernelDriver{rm: rm}, kmodel, plan)
					wrapped := runGroupPlan(&engineDriver{e, map[uint64]*engine.Txn{}}, wmodel, plan)
					compareOutcomes(t, pure, wrapped)
					compareRecovered(t, rm, e, equivPages)
					fails, _ := faultinj.AuditState(e, wrapped, equivPages)
					for _, f := range fails {
						t.Error(f)
					}
				})
			}
		})
	}
}

// TestKernelWrapperEquivalenceClean replays the scripted workload crash-free
// through both layers of every architecture and demands identical outcomes,
// recovered states, and counters.
func TestKernelWrapperEquivalenceClean(t *testing.T) {
	for _, tg := range equivTargets() {
		t.Run(tg.name, func(t *testing.T) {
			rm, _ := tg.kernel(t)
			e, _ := tg.wrapped(t)
			kmodel, err := loadKernelPages(rm, equivPages)
			if err != nil {
				t.Fatalf("kernel load: %v", err)
			}
			wmodel, err := faultinj.LoadPages(e, equivPages)
			if err != nil {
				t.Fatalf("wrapper load: %v", err)
			}
			pure := runKernelScript(rm, kmodel, equivSeed, equivPages, equivTxns)
			wrapped := faultinj.RunScript(e, wmodel, equivSeed, equivPages, equivTxns)
			if pure.Crashed || wrapped.Crashed {
				t.Fatalf("clean run crashed without injection (kernel=%v wrapper=%v)",
					pure.Crashed, wrapped.Crashed)
			}
			compareOutcomes(t, pure, wrapped)
			compareRecovered(t, rm, e, equivPages)
		})
	}
}

// TestKernelWrapperEquivalenceUnderCrashes enumerates the workload's stable
// mutations and, at each sampled crash point, cuts power in both layers at
// the same mutation ordinal. Because the two layers issue identical kernel
// call sequences, they must crash at the same logical instant and recover
// to byte-identical states with identical counters.
func TestKernelWrapperEquivalenceUnderCrashes(t *testing.T) {
	stride := int64(3)
	if testing.Short() {
		stride = 7
	}
	for _, tg := range equivTargets() {
		t.Run(tg.name, func(t *testing.T) {
			// Probe: count stable mutations of a crash-free kernel run. The
			// count starts after the initial load, as in
			// faultinj.SweepTarget, so mutation ordinals count workload
			// traffic only.
			rm, stores := tg.kernel(t)
			model, err := loadKernelPages(rm, equivPages)
			if err != nil {
				t.Fatalf("probe load: %v", err)
			}
			before := mutations(stores)
			if out := runKernelScript(rm, model, equivSeed, equivPages, equivTxns); out.Crashed {
				t.Fatalf("probe run crashed without injection")
			}
			muts := mutations(stores) - before
			if want := seqCrashMutations[tg.name]; muts != want {
				t.Fatalf("probe run made %d stable mutations; pinned %d", muts, want)
			}

			points := crashPoints(muts, stride)
			for i, k := range points {
				t.Run(fmt.Sprintf("mut%d", k), func(t *testing.T) {
					t.Logf("point %d of %d: power cut at mutation %d of %d", i, len(points), k, muts)
					rm, kstores := tg.kernel(t)
					e, wstores := tg.wrapped(t)
					kmodel, err := loadKernelPages(rm, equivPages)
					if err != nil {
						t.Fatalf("kernel load: %v", err)
					}
					wmodel, err := faultinj.LoadPages(e, equivPages)
					if err != nil {
						t.Fatalf("wrapper load: %v", err)
					}
					// Each layer gets its own hook: CrashAtMutation closes over
					// a private ordinal counter, so sharing one would halve the
					// observed crash point.
					khook := pagestore.CrashAtMutation(k)
					for _, s := range kstores {
						s.SetFaultHook(khook)
					}
					whook := pagestore.CrashAtMutation(k)
					for _, s := range wstores {
						s.SetFaultHook(whook)
					}
					pure := runKernelScript(rm, kmodel, equivSeed, equivPages, equivTxns)
					wrapped := faultinj.RunScript(e, wmodel, equivSeed, equivPages, equivTxns)
					compareOutcomes(t, pure, wrapped)
					compareRecovered(t, rm, e, equivPages)
				})
			}
		})
	}
}
