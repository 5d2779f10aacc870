package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path"
	"slices"
	"strings"
)

// wallClockFuncs are the time functions D001 forbids, called or taken
// as a value: everything that reads the host clock or blocks on it. Pure
// value manipulation (time.Duration arithmetic, time.Unix) is allowed.
var wallClockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "AfterFunc": true, "Tick": true,
	"NewTicker": true, "NewTimer": true,
}

// randConstructors are the math/rand (and /v2) functions D002 allows:
// anything that builds an explicitly seeded local generator. Every other
// package-level function draws from the global stream; type names
// (rand.Rand, rand.Zipf) are not references to the stream at all.
var randConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

// envFuncs are the os functions D005 forbids as configuration side
// channels.
var envFuncs = map[string]bool{
	"Getenv": true, "LookupEnv": true, "Environ": true,
	"Setenv": true, "Unsetenv": true,
}

// osStreams are the os package variables D005 forbids as output side
// channels.
var osStreams = map[string]bool{"Stdout": true, "Stderr": true, "Stdin": true}

// syncPackages are the concurrency packages D004 bans outright in the
// kernel scope: any qualified reference (a sync.Mutex field, a
// sync.WaitGroup value, an atomic.AddUint64 call) is a violation. The pure
// recovery kernels must carry no concurrency envelope of their own — that
// is the wrapper layer's job (internal/engine.Guard).
var syncPackages = map[string]bool{"sync": true, "sync/atomic": true}

// wrapperImportSuffixes are the runtime/wrapper-layer packages D004 bans
// from the import closure of kernel scope, matched as module-relative
// path suffixes so the check works for any module name (including the
// fixture corpus). The kernel may depend on the deterministic
// observation layer (internal/obs, whose Journal is a pure ordered log),
// but never on the concurrency wrapper or the wall-clock metrics layer
// above it.
var wrapperImportSuffixes = []string{
	"internal/engine",
	"internal/lockmgr",
	"internal/runpool",
	"internal/obs/live",
}

// wrapperImport reports the banned suffix importPath matches, if any.
func wrapperImport(importPath string) (string, bool) {
	for _, suf := range wrapperImportSuffixes {
		if importPath == suf || strings.HasSuffix(importPath, "/"+suf) {
			return suf, true
		}
	}
	return "", false
}

// sinkRules are the rules that catch a sink where it is named. D004's
// import ban keeps kernel code from reaching a package they do not
// cover.
var sinkRules = []string{"D001", "D002", "D005"}

// coveredBySinkRules reports whether every file of pkg is in scope of
// every sink rule.
func coveredBySinkRules(pkg *Package) bool {
	for _, file := range pkg.Files {
		rel := effectiveRel(pkg, parseDirectives(pkg.Fset, file))
		for _, r := range Rules {
			if slices.Contains(sinkRules, r.ID) && !inScope(r, rel) {
				return false
			}
		}
	}
	return true
}

// bannedImportChain searches the module-local import closure of
// importPath breadth-first for a package kernel code must not reach: a
// wrapper/runtime-layer package, or one the sink rules do not cover. It
// returns the shortest import chain to the first one found and what that
// package is, or a nil chain when the closure is clean.
func (l *loader) bannedImportChain(importPath string) (chain []string, what string) {
	type step struct {
		pkg  *Package
		prev int
	}
	first := l.modulePkg(importPath)
	if first == nil {
		return nil, ""
	}
	queue := []step{{first, -1}}
	seen := map[*Package]bool{first: true}
	for i := 0; i < len(queue); i++ {
		pkg := queue[i].pkg
		if suf, banned := wrapperImport(pkg.Types.Path()); banned {
			what = "wrapper/runtime layer " + suf
		} else if !coveredBySinkRules(pkg) {
			what = "a package outside " + strings.Join(sinkRules, "/") + " scope"
		}
		if what != "" {
			for j := i; j >= 0; j = queue[j].prev {
				chain = append(chain, queue[j].pkg.Types.Path())
			}
			slices.Reverse(chain)
			return chain, what
		}
		for _, imp := range pkg.Types.Imports() {
			if dep := l.modulePkg(imp.Path()); dep != nil && !seen[dep] {
				seen[dep] = true
				queue = append(queue, step{dep, i})
			}
		}
	}
	return nil, ""
}

// sensitivePrefixes / sensitiveExact classify callee names whose effects
// are order-sensitive when executed under a map iteration: output
// emission, event scheduling, stateful mutation of metrics or stores.
// Pure reads (Value, Mean, Percentile, ...) and map-index writes are
// order-insensitive and deliberately not listed. Since the call-graph
// pass, these lists are only the *fallback* for callees the type-based
// effect analysis cannot see into (dynamic calls, interface methods,
// bodyless standard-library functions); anything with a body in the
// loaded program is judged by its computed effects instead.
var sensitivePrefixes = []string{
	"Write", "Print", "Fprint", "Emit", "Trace", "Schedule", "Record",
	"Observe", "Log", "Push", "Enqueue", "Submit", "Put", "Send", "Append",
}

var sensitiveExact = map[string]bool{
	"Add": true, "Inc": true, "Set": true, "Adjust": true, "At": true,
	"Delete": true, "Remove": true, "Event": true, "Flush": true,
}

func sensitiveCallName(name string) bool {
	if name == "" {
		return false
	}
	if sensitiveExact[name] {
		return true
	}
	for _, p := range sensitivePrefixes {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

// checker analyzes one file of one package.
type checker struct {
	pkg     *Package
	file    *ast.File
	ld      *loader           // every loaded package (D004's import closure)
	g       *graph            // program-wide call graph (D003 effects, D007, D008)
	imports map[string]string // fallback identifier -> import path map
	active  map[string]bool   // rule ID -> in scope for this file
	diags   []Diagnostic
}

// checkPackage runs every rule over every file of pkg — the syntactic
// walk first, then the call-graph rules — and appends the file's
// malformed-directive errors.
func checkPackage(pkg *Package, ld *loader, g *graph) []Diagnostic {
	var out []Diagnostic
	for _, file := range pkg.Files {
		dirs := parseDirectives(pkg.Fset, file)
		rel := effectiveRel(pkg, dirs)
		c := &checker{
			pkg:     pkg,
			file:    file,
			ld:      ld,
			g:       g,
			imports: importTable(file),
			active:  map[string]bool{},
		}
		for _, r := range Rules {
			c.active[r.ID] = inScope(r, rel)
		}
		c.checkKernelImports()
		c.walk()
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				c.checkGraphRules(fd)
			}
		}
		out = append(append(out, c.diags...), dirs.malformed...)
	}
	return out
}

// checkGraphRules runs the interprocedural rules for one declared
// function of the file.
func (c *checker) checkGraphRules(fd *ast.FuncDecl) {
	obj, ok := c.pkg.Info.Defs[fd.Name].(*types.Func)
	if !ok {
		return
	}
	n := c.g.nodes[obj]
	if n == nil {
		return
	}
	if exportedKernelMethod(n) {
		c.checkEscape(n)
		c.checkJournal(n)
	}
}

// exportedKernelMethod restricts D007/D008 to the kernel API surface:
// exported methods on exported receiver types. Unexported helpers are
// internal to the kernel and judged only through the methods that call
// them.
func exportedKernelMethod(n *funcNode) bool {
	if n.recvObj == nil && n.decl.Recv == nil {
		return false
	}
	if !n.obj.Exported() {
		return false
	}
	sig, ok := n.obj.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	named := namedOf(sig.Recv().Type())
	return named != nil && named.Obj().Exported()
}

// checkEscape implements D007 over one exported kernel method.
func (c *checker) checkEscape(n *funcNode) {
	if !c.active["D007"] {
		return
	}
	for _, f := range escapeFindings(c.g, n) {
		c.report(f.pos, "D007", fmt.Sprintf("%s %s", n.displayName(), f.msg))
	}
}

// checkJournal implements D008: an exported kernel method that
// (transitively) mutates stable storage must also reach the recovery
// journal sink.
func (c *checker) checkJournal(n *funcNode) {
	if !c.active["D008"] || n.stableChain == nil || n.reachJournal {
		return
	}
	c.report(n.decl.Name.Pos(), "D008", fmt.Sprintf(
		"%s mutates stable storage (%s) but never reaches the recovery journal: emit an obs.Journal event on every stable-mutation path",
		n.displayName(), chainString(n)))
}

func importTable(file *ast.File) map[string]string {
	t := map[string]string{}
	for _, imp := range file.Imports {
		p := strings.Trim(imp.Path.Value, `"`)
		name := path.Base(p)
		if imp.Name != nil {
			name = imp.Name.Name
		}
		t[name] = p
	}
	return t
}

func (c *checker) report(pos token.Pos, rule, msg string) {
	c.diags = append(c.diags, Diagnostic{
		Pos:     c.pkg.Fset.Position(pos),
		Rule:    rule,
		Message: msg,
	})
}

// walk traverses the file keeping an ancestor stack so rules can find
// their enclosing function body.
func (c *checker) walk() {
	var stack []ast.Node
	ast.Inspect(c.file, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		c.visit(n, stack)
		return true
	})
}

func (c *checker) visit(n ast.Node, stack []ast.Node) {
	switch n := n.(type) {
	case *ast.CallExpr:
		c.checkClose(n)
	case *ast.SelectorExpr:
		c.checkSinkRef(n, stack)
		c.checkSyncRef(n)
	case *ast.GoStmt:
		c.kernelViolation(n.Pos(), "goroutine launch (go statement)")
	case *ast.SendStmt:
		c.kernelViolation(n.Pos(), "channel send")
	case *ast.UnaryExpr:
		if n.Op == token.ARROW {
			c.kernelViolation(n.Pos(), "channel receive")
		}
	case *ast.SelectStmt:
		c.kernelViolation(n.Pos(), "select statement")
	case *ast.ChanType:
		c.kernelViolation(n.Pos(), "channel type")
	case *ast.RangeStmt:
		c.checkMapRange(n, stack)
	}
}

// pkgQualified resolves fun as a package-qualified reference ("time.Now")
// to its import path and name, preferring type information and falling
// back to the file's import table when type-checking was incomplete.
func (c *checker) pkgQualified(fun ast.Expr) (pkgPath, name string, ok bool) {
	sel, isSel := fun.(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	id, isIdent := sel.X.(*ast.Ident)
	if !isIdent {
		return "", "", false
	}
	if obj := c.pkg.Info.Uses[id]; obj != nil {
		pn, isPkg := obj.(*types.PkgName)
		if !isPkg {
			return "", "", false
		}
		return pn.Imported().Path(), sel.Sel.Name, true
	}
	if p, found := c.imports[id.Name]; found {
		return p, sel.Sel.Name, true
	}
	return "", "", false
}

func (c *checker) objectOf(id *ast.Ident) types.Object {
	if obj := c.pkg.Info.Uses[id]; obj != nil {
		return obj
	}
	return c.pkg.Info.Defs[id]
}

func (c *checker) isBuiltin(id *ast.Ident, name string) bool {
	if id.Name != name {
		return false
	}
	obj := c.objectOf(id)
	if obj == nil {
		return true // no type info: assume unshadowed builtin
	}
	_, isBuiltin := obj.(*types.Builtin)
	return isBuiltin
}

// checkSinkRef implements D001, D002 and D005 at every package-qualified
// reference to a sink, whether it is called or taken as a value: storing
// time.Now in a clock field hands the wall clock to every later caller
// exactly like calling it, so the reference itself is the finding.
func (c *checker) checkSinkRef(sel *ast.SelectorExpr, stack []ast.Node) {
	pkgPath, name, ok := c.pkgQualified(sel)
	if !ok {
		return
	}
	if _, isType := c.pkg.Info.Uses[sel.Sel].(*types.TypeName); isType {
		return
	}
	use := "reference to"
	if call, isCall := stack[len(stack)-2].(*ast.CallExpr); isCall && call.Fun == sel {
		use = "call to"
	}
	switch {
	case c.active["D001"] && pkgPath == "time" && wallClockFuncs[name]:
		c.report(sel.Pos(), "D001", fmt.Sprintf(
			"%s time.%s reads the wall clock: simulation code must use the virtual clock (sim.Engine)", use, name))
	case c.active["D002"] && (pkgPath == "math/rand" || pkgPath == "math/rand/v2") && !randConstructors[name]:
		c.report(sel.Pos(), "D002", fmt.Sprintf(
			"%s rand.%s draws from the global math/rand stream: all randomness must flow through the seeded sim.RNG", use, name))
	case c.active["D005"] && pkgPath == "os" && envFuncs[name]:
		c.report(sel.Pos(), "D005", fmt.Sprintf(
			"%s os.%s is a configuration side channel: internal packages must take configuration through machine.Config", use, name))
	case c.active["D005"] && pkgPath == "os" && osStreams[name]:
		c.report(sel.Pos(), "D005", fmt.Sprintf(
			"reference to os.%s is an output side channel: internal packages must write through an injected io.Writer", name))
	}
}

// checkClose is the channel-close half of D004's channel ban.
func (c *checker) checkClose(call *ast.CallExpr) {
	if c.active["D004"] {
		if id, isIdent := call.Fun.(*ast.Ident); isIdent && c.isBuiltin(id, "close") {
			c.kernelViolation(call.Pos(), "channel close")
		}
	}
}

// checkSyncRef implements the sync half of D004: any reference into the
// sync or sync/atomic packages inside the kernel scope is a violation,
// whether it is a type (a sync.Mutex field), a method-bearing value, or a
// call (atomic.AddUint64).
func (c *checker) checkSyncRef(sel *ast.SelectorExpr) {
	if !c.active["D004"] {
		return
	}
	if pkgPath, name, ok := c.pkgQualified(sel); ok && syncPackages[pkgPath] {
		c.kernelViolation(sel.Pos(), fmt.Sprintf("use of %s.%s", path.Base(pkgPath), name))
	}
}

// checkKernelImports implements the import half of D004: a kernel-scope
// file must not import the wrapper/runtime layer at all — not with a
// blank import, and not through any chain of module-local imports — so
// instrumentation hooks can only be injected from above the Guard
// boundary, never compiled into the kernel. Nor may its imports reach a
// module package the direct sink rules (D001, D002, D005) do not cover:
// a kernel calling into one could read the wall clock, the global rand
// stream or the environment past them. A direct import of such a
// package is named alone; a longer chain is spelled out.
func (c *checker) checkKernelImports() {
	if !c.active["D004"] {
		return
	}
	for _, imp := range c.file.Imports {
		p := strings.Trim(imp.Path.Value, `"`)
		switch chain, what := c.ld.bannedImportChain(p); {
		case len(chain) == 1:
			c.kernelViolation(imp.Pos(), fmt.Sprintf("import of %q (%s)", p, what))
		case chain != nil:
			c.kernelViolation(imp.Pos(), fmt.Sprintf(
				"import of %q (reaches %s: %s)", p, what, strings.Join(chain, " -> ")))
		}
	}
}

func (c *checker) kernelViolation(pos token.Pos, what string) {
	if !c.active["D004"] {
		return
	}
	c.report(pos, "D004", what+": the simulator kernel is single-threaded by design")
}

// appendTarget records a `x = append(x, ...)` collector inside a map
// range whose slice was declared outside the loop.
type appendTarget struct {
	obj  types.Object
	name string
}

// checkMapRange implements D003: a range over a map whose body performs
// order-sensitive work is only allowed as the sorted-keys idiom — the
// body does nothing but collect into slices that are sorted (sort.* or
// slices.*) later in the same function.
func (c *checker) checkMapRange(rng *ast.RangeStmt, stack []ast.Node) {
	if !c.active["D003"] {
		return
	}
	tv, ok := c.pkg.Info.Types[rng.X]
	if !ok || tv.Type == nil {
		return // no type info; stay silent rather than guess
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}
	effects, appends := c.orderEffects(rng)
	if len(effects) == 0 && len(appends) == 0 {
		return
	}
	if len(effects) == 0 {
		// Only collecting appends: allowed when every target is sorted
		// before the function is done with it.
		body := enclosingFuncBody(stack)
		for _, t := range appends {
			if !c.sortedAfter(body, t.obj, rng.End()) {
				effects = append(effects, fmt.Sprintf("append to %q, which is never sorted afterwards", t.name))
			}
		}
		if len(effects) == 0 {
			return
		}
	}
	c.report(rng.Pos(), "D003", fmt.Sprintf(
		"map iteration with order-sensitive effects (%s): iterate a sorted key slice instead", strings.Join(effects, "; ")))
}

// orderEffects scans a map-range body for effects whose outcome depends
// on iteration order.
func (c *checker) orderEffects(rng *ast.RangeStmt) (effects []string, appends []appendTarget) {
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				call, isCall := rhs.(*ast.CallExpr)
				if !isCall || i >= len(n.Lhs) {
					continue
				}
				if id, isIdent := call.Fun.(*ast.Ident); !isIdent || !c.isBuiltin(id, "append") {
					continue
				}
				lhs, isIdent := n.Lhs[i].(*ast.Ident)
				if !isIdent {
					continue
				}
				obj := c.objectOf(lhs)
				if obj == nil {
					continue
				}
				if obj.Pos() >= rng.Pos() && obj.Pos() <= rng.End() {
					continue // loop-local collector; order folded away inside the loop
				}
				appends = append(appends, appendTarget{obj: obj, name: lhs.Name})
			}
		case *ast.CallExpr:
			if id, isIdent := n.Fun.(*ast.Ident); isIdent && c.isBuiltin(id, "append") {
				return true // handled via the enclosing assignment
			}
			if desc, sensitive := c.callEffect(n, rng); sensitive {
				effects = append(effects, desc)
			}
		case *ast.SendStmt:
			effects = append(effects, "channel send")
		}
		return true
	})
	return effects, appends
}

// callEffect classifies one call inside a map-range body as
// order-sensitive or commuting. Functions with bodies in the loaded
// program are judged by their *computed* effects (emission to an
// escaping io.Writer, package-level mutation, receiver mutation when the
// receiver outlives the loop); bodyless callees (standard library,
// interface methods) are judged by io.Writer implementation and, as a
// last resort, by the legacy name heuristic.
func (c *checker) callEffect(call *ast.CallExpr, rng *ast.RangeStmt) (string, bool) {
	loopLocal := func(e ast.Expr) bool {
		root := rootIdent(e)
		if root == nil {
			return false
		}
		obj := c.objectOf(root)
		return obj != nil && obj.Pos() >= rng.Pos() && obj.Pos() <= rng.End()
	}
	var obj *types.Func
	var recvExpr ast.Expr
	switch f := unparen(call.Fun).(type) {
	case *ast.Ident:
		obj, _ = c.objectOf(f).(*types.Func)
	case *ast.SelectorExpr:
		obj, _ = c.pkg.Info.Uses[f.Sel].(*types.Func)
		if obj != nil {
			if sig, isSig := obj.Type().(*types.Signature); isSig && sig.Recv() != nil {
				recvExpr = f.X
			}
		}
	}
	if obj == nil {
		// No type information (or a dynamic call): keep the conservative
		// name heuristic.
		if name := calleeName(call); sensitiveCallName(name) {
			return "call to " + exprString(call.Fun), true
		}
		return "", false
	}
	if n := c.g.nodes[obj]; n != nil {
		switch {
		case n.effEmit:
			return "call to " + exprString(call.Fun) + ", which emits output", true
		case n.effMutGlobal:
			return "call to " + exprString(call.Fun) + ", which mutates package-level state", true
		case n.effMutRecv && (recvExpr == nil || !loopLocal(recvExpr)):
			return "call to " + exprString(call.Fun) + ", which mutates state that outlives the loop", true
		}
		return "", false // typed verdict: the callee's effects commute
	}
	// Bodyless callee (standard library or interface method).
	if output, emits, to := c.g.outputCall(c.pkg.Info, obj, recvExpr, call); output {
		switch {
		case !emits || (to != nil && loopLocal(to)):
			return "", false
		case recvExpr != nil:
			return "write to io.Writer " + exprString(recvExpr), true
		}
		return "call to " + exprString(call.Fun), true
	}
	if sensitiveCallName(obj.Name()) {
		return "call to " + exprString(call.Fun), true
	}
	return "", false
}

// sortedAfter reports whether obj is passed to a sort/slices call after
// pos inside body.
func (c *checker) sortedAfter(body *ast.BlockStmt, obj types.Object, pos token.Pos) bool {
	if body == nil {
		return false
	}
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		call, isCall := n.(*ast.CallExpr)
		if !isCall || call.Pos() <= pos {
			return true
		}
		pkgPath, _, ok := c.pkgQualified(call.Fun)
		if !ok || (pkgPath != "sort" && pkgPath != "slices") {
			return true
		}
		for _, arg := range call.Args {
			if id, isIdent := arg.(*ast.Ident); isIdent && c.objectOf(id) == obj {
				found = true
			}
		}
		return true
	})
	return found
}

func enclosingFuncBody(stack []ast.Node) *ast.BlockStmt {
	for i := len(stack) - 1; i >= 0; i-- {
		switch fn := stack[i].(type) {
		case *ast.FuncDecl:
			return fn.Body
		case *ast.FuncLit:
			return fn.Body
		}
	}
	return nil
}

func calleeName(call *ast.CallExpr) string {
	switch f := call.Fun.(type) {
	case *ast.Ident:
		return f.Name
	case *ast.SelectorExpr:
		return f.Sel.Name
	}
	return ""
}

func exprString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprString(e.X) + "." + e.Sel.Name
	case *ast.CallExpr:
		return exprString(e.Fun) + "(...)"
	case *ast.IndexExpr:
		return exprString(e.X) + "[...]"
	default:
		return "<expr>"
	}
}
