package faultinj

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/obs/live"
	"repro/internal/pagestore"
	"repro/internal/runpool"
	"repro/internal/shadoweng"
	"repro/internal/wal"
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

// architectures is the one table of the seven recovery architectures,
// mirroring the paper's comparison: WAL with one and three parallel log
// streams, shadow paging (canonical, both overwrite variants, version
// selection), and differential files. open creates each stable store
// (name tells a file-backed opener which directory it belongs to); the WAL
// engines keep data pages and log chunks on separate stores, the log
// store's page size being the chunk size. clean becomes every target's
// Clean hook and also releases a build that fails halfway.
func architectures(open func(name string, pageSize int) (*pagestore.Store, error),
	clean func([]*pagestore.Store)) []Target {
	release := func(s *pagestore.Store) {
		if clean != nil {
			clean([]*pagestore.Store{s})
		}
	}
	one := func(name string, mk func(*pagestore.Store) (*engine.Engine, error)) Target {
		return Target{Name: name, Clean: clean, Build: func() (*engine.Engine, []*pagestore.Store, error) {
			store, err := open(name, 4096)
			if err != nil {
				return nil, nil, err
			}
			e, err := mk(store)
			if err != nil {
				release(store)
				return nil, nil, err
			}
			return e, []*pagestore.Store{store}, nil
		}}
	}
	walT := func(name string, cfg wal.Config) Target {
		cfg.PoolPages = 4
		return Target{Name: name, Clean: clean, Build: func() (*engine.Engine, []*pagestore.Store, error) {
			data, err := open(name+"-data", 4096)
			if err != nil {
				return nil, nil, err
			}
			c := cfg // Build runs on many pool workers at once
			if c.LogStore, err = open(name+"-log", wal.LogChunkSize); err != nil {
				release(data)
				return nil, nil, err
			}
			e, _ := engine.NewWALOn(data, c)
			return e, []*pagestore.Store{data, c.LogStore}, nil
		}}
	}
	return []Target{
		walT("wal-1stream", wal.Config{}),
		walT("wal-3streams", wal.Config{Streams: 3, Selection: wal.PageMod}),
		one("shadow", engine.NewShadowOn),
		one("ow-noundo", func(s *pagestore.Store) (*engine.Engine, error) {
			return engine.NewOverwriteOn(s, shadoweng.NoUndo), nil
		}),
		one("ow-noredo", func(s *pagestore.Store) (*engine.Engine, error) {
			return engine.NewOverwriteOn(s, shadoweng.NoRedo), nil
		}),
		one("verselect", engine.NewVersionSelectOn),
		one("difffile", func(s *pagestore.Store) (*engine.Engine, error) {
			return engine.NewDiffOn(s), nil
		}),
	}
}

// TargetsByName filters Targets to the comma-separated names in sel; empty
// or "all" selects everything.
func TargetsByName(sel string) ([]Target, error) {
	return selectTargets(Targets(), sel)
}

func selectTargets(all []Target, sel string) ([]Target, error) {
	if sel == "" || sel == "all" {
		return all, nil
	}
	byName := make(map[string]Target, len(all))
	known := make([]string, 0, len(all))
	for _, tg := range all {
		byName[tg.Name] = tg
		known = append(known, tg.Name)
	}
	var out []Target
	for _, name := range strings.Split(sel, ",") {
		name = strings.TrimSpace(name)
		tg, ok := byName[name]
		if !ok {
			sort.Strings(known)
			return nil, fmt.Errorf("faultinj: unknown engine %q (have %s)",
				name, strings.Join(known, ", "))
		}
		out = append(out, tg)
	}
	return out, nil
}

// Options configures an engine sweep.
type Options struct {
	Seed    int64 // workload seed (same seed → byte-identical report)
	Every   int64 // stride between crash points; 1 = every mutation
	Pages   int   // database pages in the scripted workload (default 6)
	MaxTxns int   // transactions per scripted run (default 25)
	// RecrashCycle varies where recovery itself is re-crashed: crash point k
	// re-crashes recovery at stable-storage operation 1+(k-1)%RecrashCycle
	// (default 5).
	RecrashCycle int64
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
	if o.Pages <= 0 {
		o.Pages = 6
	}
	if o.MaxTxns <= 0 {
		o.MaxTxns = 25
	}
	if o.RecrashCycle <= 0 {
		o.RecrashCycle = 5
	}
	return o
}

// TargetReport is the audited result of sweeping one recovery architecture.
type TargetReport struct {
	Target        string
	Mutations     int64    // stable mutations in the crash-free probe run
	Points        int      // crash points injected and audited
	Recrashes     int      // recoveries that were crashed mid-flight and rerun
	DoubtApplied  int      // in-doubt commits recovery surfaced as applied
	DoubtReverted int      // in-doubt commits recovery rolled back
	Commits       int64    // committed transactions across all point runs
	Failures      []string // audit failures; empty means every audit passed
}

// SweepTarget enumerates every opt.Every-th stable mutation of the scripted
// workload as a crash point and, for each one, runs crash → recover →
// audit, re-crashing recovery itself partway through. The returned error
// reports harness problems (a target that cannot even be built); audit
// verdicts live in the report.
func SweepTarget(tg Target, opt Options) (*TargetReport, error) {
	opt = opt.withDefaults()
	rep := &TargetReport{Target: tg.Name}

	// Probe run: count the workload's stable mutations without crashing.
	e, stores, err := tg.Build()
	if err != nil {
		return nil, fmt.Errorf("faultinj: build %s: %w", tg.Name, err)
	}
	defer tg.clean(stores)
	model, err := LoadPages(e, opt.Pages)
	if err != nil {
		return nil, fmt.Errorf("faultinj: load %s: %w", tg.Name, err)
	}
	ctr := &Counter{}
	hook := ctr.Hook()
	for _, s := range stores {
		s.SetFaultHook(hook)
	}
	probe := RunScript(e, model, opt.Seed, opt.Pages, opt.MaxTxns)
	if probe.Crashed {
		return nil, fmt.Errorf("faultinj: %s: probe run crashed without injection", tg.Name)
	}
	rep.Mutations = ctr.Mutations()

	// Every crash point builds its own engine and stores, so points are
	// shared-nothing jobs; they fan out across workers and their outcomes
	// are folded into the report in point order, keeping it byte-identical
	// at any worker count.
	var points []int64
	for k := int64(1); k <= rep.Mutations; k += opt.Every {
		points = append(points, k)
	}
	opt.Progress.AddTotal(int64(len(points)))
	outcomes, err := runpool.Map(opt.Jobs, len(points), func(i int) (*pointOutcome, error) {
		po, err := sweepPoint(tg, opt, points[i], nil)
		opt.Progress.Add(1)
		return po, err
	})
	if err != nil {
		return nil, err
	}
	for _, po := range outcomes {
		rep.Points++
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

// fail records each audit failure under the point's label.
func (po *pointOutcome) fail(label string, fails ...string) {
	for _, f := range fails {
		po.failures = append(po.failures, label+": "+f)
	}
}

// recoverAndAudit is the tail every crash point shares once the fault has
// fired and the engine has crashed: crash recovery itself at a k-derived
// page operation, finish recovery, then audit state, idempotence, and
// liveness. Failures are labelled with label.
func (po *pointOutcome) recoverAndAudit(e *engine.Engine, stores []*pagestore.Store, out *Outcome, opt Options, k int64, label string) {
	// Re-crash recovery partway through: the restarted restart must still
	// converge. CrashAtOp fires exactly once, so the retry below runs over
	// the same armed stores without tripping again.
	j := 1 + (k-1)%opt.RecrashCycle
	rhook := CrashAtOp(j)
	for _, s := range stores {
		s.SetFaultHook(rhook)
	}
	if err := e.Recover(); err != nil {
		po.recrashed = true
		e.Crash()
		if err := e.Recover(); err != nil {
			po.fail(label, fmt.Sprintf("recovery after mid-recovery crash (op %d): %v", j, err))
			return
		}
	}
	for _, s := range stores {
		s.SetFaultHook(nil)
	}

	fails, applied := AuditState(e, out, opt.Pages)
	if out.Doubt != nil {
		po.doubtApplied = applied
		po.doubtReverted = !applied
	}
	fails = append(fails, AuditIdempotence(e, opt.Pages)...)
	po.fail(label, append(fails, AuditLiveness(e, opt.Pages)...)...)
}

// sweepPoint audits one crash point: cut power at the k-th stable mutation,
// crash recovery itself at a k-derived operation, finish recovery, then
// audit state, idempotence, and liveness. A non-nil journal is attached to
// the engine's kernel before the run, so it records the checkpoint and
// recovery decisions of exactly this point.
func sweepPoint(tg Target, opt Options, k int64, journal *obs.Journal) (*pointOutcome, error) {
	po := &pointOutcome{}
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
	model, err := LoadPages(e, opt.Pages)
	if err != nil {
		return nil, fmt.Errorf("faultinj: load %s: %w", tg.Name, err)
	}
	hook := CrashAtMutation(k)
	for _, s := range stores {
		s.SetFaultHook(hook)
	}
	out := RunScript(e, model, opt.Seed, opt.Pages, opt.MaxTxns)
	po.commits = int64(out.Commits)
	e.Crash()
	po.recoverAndAudit(e, stores, out, opt, k, fmt.Sprintf("%s@%d", tg.Name, k))
	return po, nil
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
	po, err := sweepPoint(tg, opt, k, j)
	if err != nil {
		return nil, nil, err
	}
	rep := &TargetReport{Target: tg.Name, Points: 1, Commits: po.commits, Failures: po.failures}
	if po.recrashed {
		rep.Recrashes = 1
	}
	if po.doubtApplied {
		rep.DoubtApplied = 1
	}
	if po.doubtReverted {
		rep.DoubtReverted = 1
	}
	return j, rep, nil
}

// Sweep runs SweepTarget over targets and bundles the reports. Targets run
// one after another — the per-target crash points already saturate
// opt.Jobs workers — and the report lists them in the given order.
func Sweep(targets []Target, opt Options) (*Report, error) {
	opt = opt.withDefaults()
	rep := &Report{Seed: opt.Seed, Every: opt.Every, Pages: opt.Pages, MaxTxns: opt.MaxTxns}
	for _, tg := range targets {
		tr, err := SweepTarget(tg, opt)
		if err != nil {
			return nil, err
		}
		rep.Engines = append(rep.Engines, tr)
	}
	return rep, nil
}
