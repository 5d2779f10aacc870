// Package lint implements simlint, the repository's determinism and
// simulator-invariant static analyzer.
//
// The paper's tables are pure simulation results, so the repo's core
// guarantee is reproducibility: same seed, byte-identical metrics
// snapshots and traces. simlint makes that invariant machine-checked
// instead of conventional. It loads every package under internal/ and
// cmd/ with only the standard library (go/parser + go/types; no
// golang.org/x/tools) and reports violations of five per-file rules:
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
//	      an import from kernel scope whose module-local import closure
//	      holds internal/engine, internal/lockmgr, internal/runpool, or
//	      internal/obs/live is a violation even if no symbol is used, so
//	      runtime instrumentation can never leak below the Guard
//	      boundary. So is one whose closure holds a module package
//	      outside D001/D002/D005 scope.
//	D005  no os.Getenv / os.Stdout side channels in internal/
//	      libraries — configuration comes through machine.Config and
//	      output through injected io.Writers.
//
// D001, D002 and D005 fire where a sink is named, called or not:
// `clock = time.Now` is a finding like `time.Now()`. With D004's
// import ban that covers every chain from kernel code to a sink: the
// chain either names the sink inside their scope or leaves it through
// an import D004 rejects.
//
// On top of the per-file rules, a program-wide call graph (callgraph.go)
// backs two interprocedural rules:
//
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
// There is no way to waive or narrow the check: no per-line ignore
// comment, no rule subset. A finding is fixed, or the rule's scope
// table changes in review. Test files (_test.go) are not analyzed:
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
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Rule, d.Message)
}

// RuleInfo describes one rule and the package subtree(s) it applies to.
// Scope and Exclude entries are module-relative paths; a trailing "/..."
// matches the whole subtree. A package matching any Exclude entry is out
// of scope even when a Scope entry matches it — carve-outs are part of
// the rule table, never per-line waivers.
type RuleInfo struct {
	ID      string
	Short   string
	Scope   []string
	Exclude []string
}

// kernelScope, D004's scope, pins the single-threaded
// simulator kernel: the event engine, the machine model, and every pure
// recovery kernel built on them — including the functional engines
// (internal/wal, internal/shadoweng, internal/diffeng), which must stay
// free of sync primitives. Concurrent runtime-side packages
// (internal/lockmgr, internal/engine with its Guard wrapper, the
// internal/runpool fan-out pool, the internal/server network front end,
// workload drivers) are deliberately outside it: runpool holds all of the
// experiment drivers' goroutines and atomics so the kernels it fans out
// stay pure (testdata/d004runpool pins that boundary), server owns the
// per-session goroutines and connection-table mutexes that drive the
// kernels over TCP, reaching them only through engine.Guard
// (testdata/d004server pins that boundary). The file-backed
// stable-storage backend (internal/pagestore/filestore) is wrapper-side
// too: it owns the os.File handles and fsync barriers that make the
// pagestore durable, is serialized by the owning pagestore.Store, and is
// never entered by kernel code directly — kernels reach the disk only
// through *pagestore.Store (testdata/d004filestore pins that boundary).
var kernelScope = []string{
	"internal/sim",
	"internal/machine",
	"internal/recovery/...",
	"internal/shadoweng",
	"internal/diffeng",
	"internal/wal",
}

// engineScope, shared by D007 and D008, is the functional engines behind
// engine.Guard.
var engineScope = []string{"internal/wal", "internal/shadoweng", "internal/diffeng"}

// Rules is the rule table, in ID order.
var Rules = []RuleInfo{
	{
		ID:    "D001",
		Short: "no wall-clock time in simulation packages (virtual clock only)",
		Scope: []string{"internal/...", "cmd/..."},
		// internal/obs/live is the runtime observability layer: the one
		// place that is *supposed* to read the host clock. Everything else
		// reaches wall time only through its Clock interface, so the
		// carve-out is a scope rule.
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
		Scope: kernelScope,
	},
	{
		ID:    "D005",
		Short: "no os env/stdout side channels in internal libraries",
		Scope: []string{"internal/..."},
	},
	{
		ID:    "D007",
		Short: "exported kernel methods must not leak aliases of kernel state across the Guard boundary",
		Scope: engineScope,
	},
	{
		ID:    "D008",
		Short: "exported kernel methods that mutate stable storage must emit through the recovery journal",
		Scope: engineScope,
	},
}

// Run analyzes the packages matched by patterns (e.g. "./internal/...",
// "./cmd/simlint") under the module root with every rule and returns the
// findings sorted by file, line, and rule. A non-empty result does not
// set err; err is reserved for load failures (bad pattern, unreadable
// directory, unparseable source, a std package the importer cannot
// check).
func Run(root string, patterns []string) ([]Diagnostic, error) {
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
		diags = append(diags, checkPackage(pkg, ld, g)...)
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

// effectiveRel is the module-relative path rule scopes see for a file
// with directives d: its //simlint:path override, or its package's own.
func effectiveRel(pkg *Package, d *directives) string {
	if d.pathOverride != "" {
		return d.pathOverride
	}
	return pkg.RelPath
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
