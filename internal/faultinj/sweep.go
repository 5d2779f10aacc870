package faultinj

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/obs/live"
	"repro/internal/pagestore"
	"repro/internal/runpool"
)

// A Target is one recovery architecture under test: a builder for a fresh
// engine plus every stable store it writes (the WAL engine has two — data
// and log — and crash points are enumerated across their combined
// operation sequence).
type Target struct {
	Name  string
	Build func() (*engine.Engine, []*pagestore.Store, error)
	// Clean, when non-nil, releases whatever Build allocated outside the
	// process (file-backed targets close their stores and remove their
	// per-build directories). It runs after every audited point and after
	// the probe run; in-memory targets leave it nil.
	Clean func(stores []*pagestore.Store)
}

func (tg Target) clean(stores []*pagestore.Store) {
	if tg.Clean != nil {
		tg.Clean(stores)
	}
}

// Targets returns every recovery architecture the sweep knows, on
// in-memory stores.
func Targets() []Target {
	return architectures(func(_ string, pageSize int) (*pagestore.Store, error) {
		return pagestore.New(pageSize), nil
	}, nil)
}

// architectures builds one Target per recovery architecture of engine's
// table. open creates each stable store; name is the architecture and the
// store's role ("wal-1stream-log", "shadow-data"), which tells a file-backed
// opener which directory it belongs to. The WAL pool is 4 pages, so the
// 6-page script steals. clean becomes every target's Clean hook and also
// releases a build that fails halfway.
func architectures(open func(name string, pageSize int) (*pagestore.Store, error),
	clean func([]*pagestore.Store)) []Target {
	var out []Target
	for _, name := range engine.Architectures() {
		out = append(out, Target{Name: name, Clean: clean, Build: func() (*engine.Engine, []*pagestore.Store, error) {
			e, stores, err := engine.Build(name, 4, func(role string, pageSize int) (*pagestore.Store, error) {
				return open(name+"-"+role, pageSize)
			})
			if err != nil {
				if clean != nil {
					clean(stores)
				}
				return nil, nil, err
			}
			return e, stores, nil
		}})
	}
	return out
}

// TargetsByName filters Targets to the comma-separated names in sel; empty
// or "all" selects everything.
func TargetsByName(sel string) ([]Target, error) {
	return selectTargets(Targets(), sel)
}

func selectTargets(all []Target, sel string) ([]Target, error) {
	names, err := engine.Select(sel)
	if err != nil {
		return nil, err
	}
	out := make([]Target, len(names))
	for i, name := range names {
		out[i] = all[slices.IndexFunc(all, func(tg Target) bool { return tg.Name == name })]
	}
	return out, nil
}

// The scripted workload every engine sweep replays: sweepTxns
// transactions over sweepPages database pages. recrashCycle varies where
// recovery itself is re-crashed: crash point k re-crashes recovery at
// stable-storage operation 1+(k-1)%recrashCycle.
const (
	sweepPages   = 6
	sweepTxns    = 25
	recrashCycle = 5
)

// Options configures an engine sweep.
type Options struct {
	Seed  int64 // workload seed (same seed → byte-identical report)
	Every int64 // stride between crash points; 1 = every mutation or file operation
	// Jobs is the worker count for fanning crash points out through
	// internal/runpool (< 1 = GOMAXPROCS). Every point builds its own engine
	// and stores, and outcomes are assembled in point order, so any value
	// renders a byte-identical report.
	Jobs int
	// Progress, when non-nil, receives live completion counts (one unit per
	// audited crash point). It feeds the -live /progress endpoint and the
	// stderr ticker; it never touches the report, which stays
	// byte-identical with or without it.
	Progress *live.Progress
}

func (o Options) withDefaults() Options {
	if o.Every <= 0 {
		o.Every = 1
	}
	return o
}

// TargetReport is the audited result of sweeping one recovery architecture.
type TargetReport struct {
	Target string
	// Ops counts the crash-free probe run's stable mutations on memory
	// stores, or its file operations on file-backed ones.
	Ops           int64
	Points        int      // crash points injected and audited (all kinds)
	Torn          int      // points injecting a torn write (file-backed only)
	LostSyncs     int      // points injecting a lost fsync (file-backed only)
	Recrashes     int      // recoveries that were crashed mid-flight and rerun
	DoubtApplied  int      // in-doubt commits recovery surfaced as applied
	DoubtReverted int      // in-doubt commits recovery rolled back
	Commits       int64    // committed transactions across all point runs
	Failures      []string // audit failures; empty means every audit passed

	files bool // swept at file-operation granularity
}

// A point is one crash point: the k-th stable mutation on memory stores,
// or fault at the k-th file operation on file-backed ones.
type point struct {
	k     int64
	fault pagestore.FileFault // FileOK on memory stores
}

// SweepTarget runs a crash-free probe of the scripted workload, lists its
// crash points, and for every one runs crash → recover → audit, re-crashing
// recovery itself partway through. The stores decide what a point is: if
// they accept a FileHook, every opt.Every-th file operation is a power-cut
// point, plus a torn-write point where it is an append or fold page-write
// and a lost-fsync point where it is an fsync; otherwise every
// opt.Every-th stable mutation is a power-cut point. The returned error
// reports harness problems (a target that cannot even be built); audit
// verdicts live in the report.
func SweepTarget(tg Target, opt Options) (*TargetReport, error) {
	opt = opt.withDefaults()
	rep := &TargetReport{Target: tg.Name}

	e, stores, err := tg.Build()
	if err != nil {
		return nil, fmt.Errorf("faultinj: build %s: %w", tg.Name, err)
	}
	defer tg.clean(stores)
	model, err := LoadPages(e, sweepPages)
	if err != nil {
		return nil, fmt.Errorf("faultinj: load %s: %w", tg.Name, err)
	}
	var mu sync.Mutex
	var ops []pagestore.FileOp
	rep.files = armFileHook(stores, func(op pagestore.FileOp, _ string, _ int64) pagestore.FileFault {
		mu.Lock()
		ops = append(ops, op)
		mu.Unlock()
		return pagestore.FileOK
	})
	before := mutations(stores)
	probe := RunScript(e, model, opt.Seed, sweepPages, sweepTxns)
	if probe.Crashed {
		return nil, fmt.Errorf("faultinj: %s: probe run crashed without injection", tg.Name)
	}

	rep.Ops = mutations(stores) - before
	if rep.files {
		rep.Ops = int64(len(ops))
	}
	var points []point
	for k := int64(1); k <= rep.Ops; k += opt.Every {
		if !rep.files {
			points = append(points, point{k: k})
			continue
		}
		points = append(points, point{k, pagestore.FileCrash})
		switch ops[k-1] {
		case pagestore.FileAppend, pagestore.FilePageWrite:
			points = append(points, point{k, pagestore.FileTorn})
		case pagestore.FileSync:
			points = append(points, point{k, pagestore.FileLostSync})
		}
	}

	// Every crash point builds its own engine and stores, so points are
	// shared-nothing jobs; they fan out across workers and their outcomes
	// are folded into the report in point order, keeping it byte-identical
	// at any worker count.
	opt.Progress.AddTotal(int64(len(points)))
	outcomes, err := runpool.Map(opt.Jobs, len(points), func(i int) (*pointOutcome, error) {
		po, err := sweepPoint(tg, opt, points[i], nil)
		opt.Progress.Add(1)
		return po, err
	})
	if err != nil {
		return nil, err
	}
	for i, po := range outcomes {
		rep.add(points[i], po)
	}
	return rep, nil
}

// pointOutcome is what one audited crash point contributes to its target's
// report; sweepPoint returns it instead of mutating shared state so points
// can run on pool workers.
type pointOutcome struct {
	commits       int64
	recrashed     bool
	doubtApplied  bool
	doubtReverted bool
	failures      []string
}

// add folds one point's outcome into the report.
func (rep *TargetReport) add(pt point, po *pointOutcome) {
	rep.Points++
	switch pt.fault {
	case pagestore.FileTorn:
		rep.Torn++
	case pagestore.FileLostSync:
		rep.LostSyncs++
	}
	rep.Commits += po.commits
	if po.recrashed {
		rep.Recrashes++
	}
	if po.doubtApplied {
		rep.DoubtApplied++
	}
	if po.doubtReverted {
		rep.DoubtReverted++
	}
	rep.Failures = append(rep.Failures, po.failures...)
}

// sweepPoint audits one crash point: arm the point, run the script, crash
// the engine, crash recovery itself at a k-derived page operation, finish
// recovery, then audit state, idempotence, and liveness. A non-nil journal
// is attached to the engine's kernel before the run, so it records the
// checkpoint and recovery decisions of exactly this point.
func sweepPoint(tg Target, opt Options, pt point, journal *obs.Journal) (*pointOutcome, error) {
	e, stores, err := tg.Build()
	if err != nil {
		return nil, fmt.Errorf("faultinj: build %s: %w", tg.Name, err)
	}
	defer tg.clean(stores)
	if journal != nil {
		if err := e.Guard().SetJournal(journal); err != nil {
			return nil, fmt.Errorf("faultinj: %s does not journal: %w", tg.Name, err)
		}
	}
	model, err := LoadPages(e, sweepPages)
	if err != nil {
		return nil, fmt.Errorf("faultinj: load %s: %w", tg.Name, err)
	}
	label := fmt.Sprintf("%s@%d", tg.Name, pt.k)
	if pt.fault == pagestore.FileOK {
		hook := pagestore.CrashAtMutation(pt.k)
		for _, s := range stores {
			s.SetFaultHook(hook)
		}
	} else {
		label = fmt.Sprintf("%s@fileop %d (%s)", tg.Name, pt.k, pt.fault)
		if !armFileHook(stores, crashAtFileOp(pt.k, pt.fault)) {
			return nil, fmt.Errorf("faultinj: %s: store backend is not file-injectable", tg.Name)
		}
	}
	out := RunScript(e, model, opt.Seed, sweepPages, sweepTxns)
	po := &pointOutcome{commits: int64(out.Commits)}
	e.Crash()
	armFileHook(stores, nil)

	// Re-crash recovery partway through: the restarted restart must still
	// converge. CrashAtOp fires exactly once, so the retry below runs over
	// the same armed stores without tripping again.
	j := 1 + (pt.k-1)%recrashCycle
	rhook := pagestore.CrashAtOp(j)
	for _, s := range stores {
		s.SetFaultHook(rhook)
	}
	if err := e.Recover(); err != nil {
		po.recrashed = true
		e.Crash()
		if err := e.Recover(); err != nil {
			po.fail(label, fmt.Sprintf("recovery after mid-recovery crash (op %d): %v", j, err))
			return po, nil
		}
	}
	for _, s := range stores {
		s.SetFaultHook(nil)
	}

	fails, applied := AuditState(e, out, sweepPages)
	if out.Doubt != nil {
		po.doubtApplied = applied
		po.doubtReverted = !applied
	}
	fails = append(fails, AuditIdempotence(e, sweepPages)...)
	po.fail(label, append(fails, AuditLiveness(e, sweepPages)...)...)
	return po, nil
}

// fail records each audit failure under the point's label.
func (po *pointOutcome) fail(label string, fails ...string) {
	for _, f := range fails {
		po.failures = append(po.failures, label+": "+f)
	}
}

// JournalPoint replays one crash point of tg with a recovery journal
// attached and returns the journal plus the point's audited outcome. The
// replay is the exact computation the sweep runs at point k — same build,
// same script, same re-crash schedule — so the journal is the
// deterministic record of what recovery decided there: same seed and k,
// byte-identical JSONL.
func JournalPoint(tg Target, opt Options, k int64) (*obs.Journal, *TargetReport, error) {
	opt = opt.withDefaults()
	j := obs.NewJournal()
	pt := point{k: k}
	po, err := sweepPoint(tg, opt, pt, j)
	if err != nil {
		return nil, nil, err
	}
	rep := &TargetReport{Target: tg.Name}
	rep.add(pt, po)
	return j, rep, nil
}

// Sweep runs SweepTarget over targets and bundles the reports: memory
// targets under Report.Engines, file-backed ones under Report.Files.
// Targets run one after another — the per-target crash points already
// saturate opt.Jobs workers — and each section lists them in the given
// order.
func Sweep(targets []Target, opt Options) (*Report, error) {
	opt = opt.withDefaults()
	rep := &Report{Seed: opt.Seed, Every: opt.Every}
	for _, tg := range targets {
		tr, err := SweepTarget(tg, opt)
		if err != nil {
			return nil, err
		}
		if tr.files {
			rep.Files = append(rep.Files, tr)
		} else {
			rep.Engines = append(rep.Engines, tr)
		}
	}
	return rep, nil
}
