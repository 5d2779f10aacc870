// Package lint implements simlint, the repository's determinism and
// simulator-invariant static analyzer.
//
// The paper's tables are pure simulation results, so the repo's core
// guarantee is reproducibility: same seed, byte-identical metrics
// snapshots and traces. simlint makes that invariant machine-checked
// instead of conventional. It loads every package under internal/ and
// cmd/ with only the standard library (go/parser + go/types; no
// golang.org/x/tools) and reports violations of five rules:
//
//	D001  no wall-clock time (time.Now, time.Since, time.Sleep, timers)
//	      in simulation packages — virtual clock only. The runtime
//	      observability layer internal/obs/live is excluded by scope: it
//	      is the single place allowed to read the host clock, and every
//	      other package reaches wall time through its Clock interface.
//	D002  no global math/rand top-level functions — all randomness must
//	      flow through the seeded sim.RNG (constructors like rand.New
//	      and rand.NewSource are allowed).
//	D003  no range over a map whose loop body has order-sensitive
//	      effects (appends that are never sorted, event scheduling,
//	      writes to io.Writer, obs/trace emission) — iterate a sorted
//	      key slice instead.
//	D004  no goroutine launches, channel operations, select, or
//	      sync/sync-atomic references inside the simulator kernel
//	      (internal/sim, internal/machine, and the pure recovery kernels
//	      internal/recovery/..., internal/shadoweng, internal/diffeng,
//	      internal/wal) — the kernel is single-threaded by design;
//	      concurrency lives in the wrapper layer (internal/engine.Guard).
//	      Kernel packages also must not import the wrapper layer itself:
//	      importing internal/engine, internal/lockmgr, internal/runpool,
//	      or internal/obs/live from kernel scope is a violation even if
//	      no symbol is used, so runtime instrumentation can never leak
//	      below the Guard boundary.
//	D005  no os.Getenv / os.Stdout side channels in internal/
//	      libraries — configuration comes through machine.Config and
//	      output through injected io.Writers.
//
// On top of the per-file rules, a program-wide call graph (callgraph.go)
// backs three interprocedural rules:
//
//	D006  transitive determinism taint — a kernel-scope function that
//	      reaches a wall-clock/global-rand/env sink through any call
//	      chain (wrapper helpers, other packages, function values) is
//	      flagged with the full chain printed in the diagnostic. Direct
//	      sink calls stay D001/D002/D005's job; D006 catches the
//	      laundered ones.
//	D007  kernel-state escape — exported kernel methods on the
//	      functional engines (internal/wal, internal/shadoweng,
//	      internal/diffeng) must not return, or store from parameters,
//	      pointers/slices/maps that alias internal kernel state: the
//	      engine.Guard serializes calls, not the lifetime of returned
//	      data, so every reference crossing the boundary must be a
//	      copy. The thread-safe substrate *pagestore.Store and the
//	      sanctioned sink *obs.Journal are exempt by design.
//	D008  journal-emission completeness — every exported kernel method
//	      that (transitively) performs a stable-storage mutation
//	      (pagestore.Store.Write/Delete) must also reach the recovery
//	      journal sink (obs.Journal.Emit), so the forensic trail cannot
//	      silently rot as kernels grow new mutation paths.
//
// A finding can be suppressed with a comment on the same line or the
// line directly above it:
//
//	//simlint:ignore D001 <reason — mandatory>
//
// A suppression without a reason or naming an unknown rule is itself an
// error; a suppression that matches no diagnostic is reported as a
// stale-suppression warning. Test files (_test.go) are not analyzed:
// tests may legitimately use wall-clock timeouts and goroutines.
package lint

import (
	"fmt"
	"go/token"
	"sort"
	"strings"
)

// Diagnostic is one finding, formatted as "file:line: [RULE] message".
type Diagnostic struct {
	Pos     token.Position
	Rule    string
	Message string
	// Warning findings (stale suppressions) are reported but do not make
	// the run fail unless the caller opts in.
	Warning bool
}

func (d Diagnostic) String() string {
	s := fmt.Sprintf("%s:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Rule, d.Message)
	if d.Warning {
		s += " (warning)"
	}
	return s
}

// RuleInfo describes one rule and the package subtree(s) it applies to.
// Scope and Exclude entries are module-relative paths; a trailing "/..."
// matches the whole subtree. A package matching any Exclude entry is out
// of scope even when a Scope entry matches it — carve-outs are part of
// the rule table, never per-line suppressions.
type RuleInfo struct {
	ID      string
	Short   string
	Scope   []string
	Exclude []string
}

// Rules is the rule table, in ID order. The D004 scope pins the
// single-threaded simulator kernel: the event engine, the machine model,
// and every pure recovery kernel built on them — including the functional
// engines (internal/wal, internal/shadoweng, internal/diffeng), which must
// stay free of sync primitives. Concurrent runtime-side packages
// (internal/lockmgr, internal/engine with its Guard wrapper, the
// internal/runpool fan-out pool, the internal/server network front end,
// workload drivers) are deliberately outside it: runpool holds all of the
// experiment drivers' goroutines and atomics so the kernels it fans out
// stay pure (testdata/d004runpool pins that boundary), server owns
// the per-session goroutines and connection-table mutexes that drive the
// kernels over TCP, reaching them only through engine.Guard
// (testdata/d004server pins that boundary). The file-backed stable-storage backend (internal/pagestore/filestore) is
// wrapper-side too: it owns the os.File handles and fsync barriers that
// make the pagestore durable, is serialized by the owning
// pagestore.Store, and is never entered by kernel code directly — kernels
// reach the disk only through *pagestore.Store, so the file surface must
// stay outside the D004/D006 kernel scopes (testdata/d004filestore pins
// that boundary). On the D007 side the same seam appears as
// Snapshotter.Stores(): a kernel handing []*pagestore.Store to the
// wrapper's snapshot plane is exempt exactly like a single
// *pagestore.Store — the elements are the thread-safe substrate — while a
// slice of anything else still escapes (testdata/d007 pins both sides).
var Rules = []RuleInfo{
	{
		ID:    "D001",
		Short: "no wall-clock time in simulation packages (virtual clock only)",
		Scope: []string{"internal/...", "cmd/..."},
		// internal/obs/live is the runtime observability layer: the one
		// place that is *supposed* to read the host clock. Everything else
		// reaches wall time only through its Clock interface, so the
		// carve-out is a scope rule, not a scatter of suppressions.
		Exclude: []string{"internal/obs/live"},
	},
	{
		ID:    "D002",
		Short: "no global math/rand functions (all randomness via the seeded sim.RNG)",
		Scope: []string{"internal/...", "cmd/..."},
	},
	{
		ID:    "D003",
		Short: "no order-sensitive effects inside an unsorted map iteration",
		Scope: []string{"internal/...", "cmd/..."},
	},
	{
		ID:    "D004",
		Short: "no goroutines, channels, select, or sync primitives in the single-threaded sim kernel",
		Scope: []string{
			"internal/sim",
			"internal/machine",
			"internal/recovery/...",
			"internal/shadoweng",
			"internal/diffeng",
			"internal/wal",
		},
	},
	{
		ID:    "D005",
		Short: "no os env/stdout side channels in internal libraries",
		Scope: []string{"internal/..."},
	},
	{
		ID:    "D006",
		Short: "no transitive reachability of wall-clock/rand/env sinks from kernel code (call-graph taint)",
		Scope: []string{
			"internal/sim",
			"internal/machine",
			"internal/recovery/...",
			"internal/shadoweng",
			"internal/diffeng",
			"internal/wal",
		},
	},
	{
		ID:    "D007",
		Short: "exported kernel methods must not leak aliases of kernel state across the Guard boundary",
		Scope: []string{"internal/wal", "internal/shadoweng", "internal/diffeng"},
	},
	{
		ID:    "D008",
		Short: "exported kernel methods that mutate stable storage must emit through the recovery journal",
		Scope: []string{"internal/wal", "internal/shadoweng", "internal/diffeng"},
	},
}

// ruleByID reports the rule table entry for id.
func ruleByID(id string) (RuleInfo, bool) {
	for _, r := range Rules {
		if r.ID == id {
			return r, true
		}
	}
	return RuleInfo{}, false
}

// KnownRule reports whether id names a rule in the table.
func KnownRule(id string) bool {
	_, ok := ruleByID(id)
	return ok
}

// Config selects which rules run.
type Config struct {
	// Rules enables a subset of rule IDs; nil or empty enables all.
	Rules []string
}

func enabledSet(ids []string) (map[string]bool, error) {
	enabled := make(map[string]bool, len(Rules))
	if len(ids) == 0 {
		for _, r := range Rules {
			enabled[r.ID] = true
		}
		return enabled, nil
	}
	for _, id := range ids {
		id = strings.TrimSpace(id)
		if id == "" {
			continue
		}
		if !KnownRule(id) {
			return nil, fmt.Errorf("lint: unknown rule %q (known: %s)", id, strings.Join(ruleIDs(), ", "))
		}
		enabled[id] = true
	}
	return enabled, nil
}

func ruleIDs() []string {
	ids := make([]string, 0, len(Rules))
	for _, r := range Rules {
		ids = append(ids, r.ID)
	}
	return ids
}

// Run analyzes the packages matched by patterns (e.g. "./internal/...",
// "./cmd/simlint") under the module root and returns the findings sorted
// by file, line, and rule. A non-empty result does not set err; err is
// reserved for load failures (bad pattern, unreadable directory,
// unparseable source).
func Run(root string, patterns []string, cfg Config) ([]Diagnostic, error) {
	enabled, err := enabledSet(cfg.Rules)
	if err != nil {
		return nil, err
	}
	dirs, err := expandPatterns(root, patterns)
	if err != nil {
		return nil, err
	}
	ld := newLoader(root)
	pkgs := make([]*Package, 0, len(dirs))
	for _, dir := range dirs {
		pkg, err := ld.load(dir)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	// The call graph spans every package the loader saw — analyzed
	// packages and their module-local dependencies — so chains through
	// helper packages resolve even when only the kernel is analyzed.
	g := buildGraph(ld)
	var diags []Diagnostic
	for _, pkg := range pkgs {
		diags = append(diags, checkPackage(pkg, enabled, g)...)
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		return a.Rule < b.Rule
	})
	return diags, nil
}

// scopeMatch reports whether the module-relative package path rel falls
// under the scope pattern pat ("internal/sim" exact, "internal/..."
// subtree).
func scopeMatch(pat, rel string) bool {
	if base, ok := strings.CutSuffix(pat, "/..."); ok {
		return rel == base || strings.HasPrefix(rel, base+"/")
	}
	return rel == pat
}

func inScope(r RuleInfo, rel string) bool {
	for _, pat := range r.Exclude {
		if scopeMatch(pat, rel) {
			return false
		}
	}
	for _, pat := range r.Scope {
		if scopeMatch(pat, rel) {
			return true
		}
	}
	return false
}
