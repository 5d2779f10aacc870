package lint

// callgraph.go is the interprocedural layer behind rules D007 and D008
// and the type-based effect classification used by D003. It indexes
// every function declared in the loaded packages — the analyzed
// packages plus every module-local dependency the loader pulled in —
// and connects them with static call edges. On top of the graph it
// solves three fixpoints:
//
//   - nearest stable-mutation chains (pagestore.Store.Write/Delete),
//     kept as explicit paths so diagnostics can print the full chain,
//     and journal reachability (obs.Journal.Emit) for D008;
//   - emission/mutation effect summaries (writes to an escaping
//     io.Writer, mutates receiver-reachable or package-level state) for
//     the type-based D003;
//   - returns-alias-of-receiver summaries consumed by the D007 escape
//     analysis in escape.go.
//
// The graph is deliberately modest: edges are static (interface calls
// other than io.Writer stay unresolved), function literals are folded
// into their enclosing declaration, and package-level `var f = func()`
// values are not tracked. Those limits keep the pass linear in the AST
// and are pinned by the fixture corpus.

import (
	"go/ast"
	"go/token"
	"go/types"
	"path"
	"sort"
	"strings"
)

// edge is one static call from one module function to another.
type edge struct {
	pos    token.Pos
	callee *funcNode
	// recvRooted marks a method call whose receiver expression is rooted
	// at the calling method's own receiver, so receiver-mutation effects
	// propagate from helper methods up to the methods that call them.
	recvRooted bool
}

// chain is one step of a shortest path from a function to a stable
// mutation: the site inside this function where the path starts, and
// the next function along it (nil when the path ends at the mutator
// named directly).
type chain struct {
	dist   int
	pos    token.Pos
	callee *funcNode
	leaf   string // mutator display name when callee == nil
}

// funcNode is one declared function or method in the loaded program.
type funcNode struct {
	obj  *types.Func
	decl *ast.FuncDecl
	pkg  *Package

	recvObj   types.Object
	paramObjs map[types.Object]bool

	calls []edge

	// direct (single-body) facts
	mutatesStable bool
	stablePos     token.Pos
	stableCallee  string
	emitsJournal  bool
	emitsOutput   bool // writes to an io.Writer that outlives the function
	mutatesRecv   bool
	mutatesGlobal bool

	// fixpoint-derived facts
	stableChain      *chain
	reachJournal     bool
	effEmit          bool
	effMutRecv       bool
	effMutGlobal     bool
	returnsRecvAlias bool
}

// displayName is the diagnostic-facing name: "wal.Manager.Recover",
// "util.WallNow".
func (n *funcNode) displayName() string { return funcDisplayName(n.obj) }

func funcDisplayName(f *types.Func) string {
	name := f.Name()
	if sig, ok := f.Type().(*types.Signature); ok && sig.Recv() != nil {
		if named := namedOf(sig.Recv().Type()); named != nil {
			name = named.Obj().Name() + "." + name
		}
	}
	if p := f.Pkg(); p != nil {
		name = path.Base(p.Path()) + "." + name
	}
	return name
}

// namedOf unwraps pointers down to the named receiver type.
func namedOf(t types.Type) *types.Named {
	for {
		switch tt := t.(type) {
		case *types.Pointer:
			t = tt.Elem()
		case *types.Named:
			return tt
		default:
			return nil
		}
	}
}

// graph is the solved interprocedural index.
type graph struct {
	fset   *token.FileSet
	nodes  map[*types.Func]*funcNode
	order  []*funcNode // deterministic iteration order (by position)
	writer *types.Interface
}

// buildGraph indexes every package the loader has seen (analyzed
// packages and their module-local dependencies alike: a kernel helper
// living in another package is still part of the kernel's call chains)
// and solves the fixpoints.
func buildGraph(ld *loader) *graph {
	g := &graph{
		fset:   ld.fset,
		nodes:  map[*types.Func]*funcNode{},
		writer: writerInterface(ld.std),
	}

	dirs := make([]string, 0, len(ld.byDir))
	for dir := range ld.byDir {
		dirs = append(dirs, dir)
	}
	sort.Strings(dirs)

	// Pass 1: index declarations.
	for _, dir := range dirs {
		pkg := ld.byDir[dir]
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				n := &funcNode{obj: obj, decl: fd, pkg: pkg, paramObjs: map[types.Object]bool{}}
				if fd.Recv != nil && len(fd.Recv.List) > 0 && len(fd.Recv.List[0].Names) > 0 {
					n.recvObj = pkg.Info.Defs[fd.Recv.List[0].Names[0]]
				}
				for _, field := range paramFields(fd.Type) {
					for _, name := range field.Names {
						if o := pkg.Info.Defs[name]; o != nil {
							n.paramObjs[o] = true
						}
					}
				}
				g.nodes[obj] = n
				g.order = append(g.order, n)
			}
		}
	}
	sort.Slice(g.order, func(i, j int) bool { return g.order[i].decl.Pos() < g.order[j].decl.Pos() })

	// Pass 2: edges and direct facts.
	for _, n := range g.order {
		g.scanBody(n)
	}

	// Pass 3: fixpoints.
	g.solveStableChains()
	g.solveBools()
	solveAliasSummaries(g)
	return g
}

// paramFields lists receiver-free parameter and named-result fields:
// objects a caller can observe after the function returns, so writes
// into them count as escaping effects.
func paramFields(ft *ast.FuncType) []*ast.Field {
	var fields []*ast.Field
	if ft.Params != nil {
		fields = append(fields, ft.Params.List...)
	}
	if ft.Results != nil {
		fields = append(fields, ft.Results.List...)
	}
	return fields
}

// writerInterface loads io.Writer through the std importer so effect
// classification can ask "does this receiver implement io.Writer?".
func writerInterface(imp types.Importer) *types.Interface {
	pkg, err := imp.Import("io")
	if err != nil || pkg == nil {
		return nil
	}
	obj := pkg.Scope().Lookup("Writer")
	if obj == nil {
		return nil
	}
	iface, _ := obj.Type().Underlying().(*types.Interface)
	return iface
}

func (g *graph) implementsWriter(t types.Type) bool {
	if g.writer == nil || t == nil {
		return false
	}
	if types.Implements(t, g.writer) {
		return true
	}
	if _, isPtr := t.Underlying().(*types.Pointer); !isPtr {
		return types.Implements(types.NewPointer(t), g.writer)
	}
	return false
}

// pureWriterMethods are method names that never constitute an emission
// even on a type that implements io.Writer (accessors on buffers).
var pureWriterMethods = map[string]bool{
	"Len": true, "Cap": true, "String": true, "Bytes": true, "Size": true,
	"Available": true, "Buffered": true, "Err": true, "Name": true,
}

// methodIdent identifies a method by (package base name, receiver type
// name, method name); base names make the match work for the fixture
// corpus's stand-in packages as well as the real module paths.
func methodIdent(f *types.Func) (pkgBase, recvType, name string, ok bool) {
	sig, isSig := f.Type().(*types.Signature)
	if !isSig || sig.Recv() == nil || f.Pkg() == nil {
		return "", "", "", false
	}
	named := namedOf(sig.Recv().Type())
	if named == nil {
		return "", "", "", false
	}
	return path.Base(f.Pkg().Path()), named.Obj().Name(), f.Name(), true
}

// isStoreMutator reports a call into the stable-storage substrate:
// pagestore.Store.Write / pagestore.Store.Delete are the only two
// operations that change stable state.
func isStoreMutator(f *types.Func) bool {
	pkgBase, recvType, name, ok := methodIdent(f)
	return ok && pkgBase == "pagestore" && recvType == "Store" && (name == "Write" || name == "Delete")
}

// isJournalEmit reports the sanctioned journal sink obs.Journal.Emit.
func isJournalEmit(f *types.Func) bool {
	pkgBase, recvType, name, ok := methodIdent(f)
	return ok && pkgBase == "obs" && recvType == "Journal" && name == "Emit"
}

// rootIdent walks selector/index/slice/star/paren/address chains down to
// the leftmost identifier, or nil when the expression is not rooted in
// one (a call result, a literal).
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.UnaryExpr:
			if x.Op != token.AND {
				return nil
			}
			e = x.X
		default:
			return nil
		}
	}
}

func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// bodyScan carries the per-body state of the edge/fact pass.
type bodyScan struct {
	g *graph
	n *funcNode
	// rooted holds the receiver object plus every local variable assigned
	// from a receiver-rooted expression, so mutations *through* such
	// locals (bp := m.pool[p]; bp.data = ...) still count as receiver
	// mutations.
	rooted map[types.Object]bool
}

func (g *graph) scanBody(n *funcNode) {
	s := &bodyScan{g: g, n: n, rooted: map[types.Object]bool{}}
	if n.recvObj != nil {
		s.rooted[n.recvObj] = true
	}
	// Two passes over simple assignments so chains of receiver-rooted
	// locals resolve regardless of textual order.
	for range 2 {
		ast.Inspect(n.decl.Body, func(x ast.Node) bool {
			switch x := x.(type) {
			case *ast.AssignStmt:
				for i, lhs := range x.Lhs {
					id, ok := lhs.(*ast.Ident)
					if !ok || i >= len(x.Rhs) {
						continue
					}
					if root := rootIdent(x.Rhs[i]); root != nil && s.rooted[s.objectOf(root)] {
						if obj := s.objectOf(id); obj != nil {
							s.rooted[obj] = true
						}
					}
				}
			case *ast.RangeStmt:
				if root := rootIdent(x.X); root != nil && s.rooted[s.objectOf(root)] {
					if id, ok := x.Value.(*ast.Ident); ok {
						if obj := s.objectOf(id); obj != nil {
							s.rooted[obj] = true
						}
					}
				}
			}
			return true
		})
	}
	ast.Inspect(n.decl.Body, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.CallExpr:
			s.scanCall(x)
		case *ast.AssignStmt:
			s.scanAssign(x)
		case *ast.IncDecStmt:
			s.noteMutation(x.X)
		}
		return true
	})
}

func (s *bodyScan) objectOf(id *ast.Ident) types.Object {
	if obj := s.n.pkg.Info.Uses[id]; obj != nil {
		return obj
	}
	return s.n.pkg.Info.Defs[id]
}

func (s *bodyScan) scanCall(call *ast.CallExpr) {
	switch f := unparen(call.Fun).(type) {
	case *ast.Ident:
		switch obj := s.n.pkg.Info.Uses[f].(type) {
		case *types.Func:
			s.addEdge(obj, call.Pos(), nil)
		case *types.Builtin:
			if f.Name == "delete" && len(call.Args) > 0 {
				s.noteMutation(call.Args[0])
			}
		}
	case *ast.SelectorExpr:
		obj, ok := s.n.pkg.Info.Uses[f.Sel].(*types.Func)
		if !ok {
			return
		}
		var recvExpr ast.Expr
		if sig, isSig := obj.Type().(*types.Signature); isSig && sig.Recv() != nil {
			recvExpr = f.X
		}
		s.addEdge(obj, call.Pos(), recvExpr)
		s.noteEmission(obj, recvExpr, call)
	}
}

func (s *bodyScan) addEdge(obj *types.Func, pos token.Pos, recvExpr ast.Expr) {
	n := s.n
	if isStoreMutator(obj) && !n.mutatesStable {
		n.mutatesStable = true
		n.stablePos = pos
		n.stableCallee = funcDisplayName(obj)
	}
	if isJournalEmit(obj) {
		n.emitsJournal = true
	}
	if callee := s.g.nodes[obj]; callee != nil {
		rooted := false
		if recvExpr != nil {
			if root := rootIdent(recvExpr); root != nil {
				rooted = s.rooted[s.objectOf(root)]
			}
		}
		n.calls = append(n.calls, edge{pos: pos, callee: callee, recvRooted: rooted})
	}
}

// noteEmission records the direct-emission base fact: a write into an
// io.Writer (or through fmt/log) whose target outlives this function.
// Writes into function-local buffers are not emissions — a helper that
// formats into a fresh bytes.Buffer and returns a string is pure.
func (s *bodyScan) noteEmission(obj *types.Func, recv ast.Expr, call *ast.CallExpr) {
	if output, emits, to := s.g.outputCall(s.n.pkg.Info, obj, recv, call); output && emits &&
		(to == nil || s.escapingTarget(to)) {
		s.n.emitsOutput = true
	}
}

// outputCall classifies a call to a function without a body in the
// loaded program (the standard library, an interface method) by whether
// it writes output; D003's effect summaries and its map-range check both
// ask it. output is false for anything but fmt, log and io.Writer
// methods other than pure accessors. For an output call, emits is false
// for fmt's formatting-only functions (Sprint*, Errorf, Append*), and to
// is the expression written into — the Fprint* writer or the io.Writer
// receiver — or nil for the process's own streams (fmt.Print*, log).
func (g *graph) outputCall(info *types.Info, obj *types.Func, recv ast.Expr, call *ast.CallExpr) (output, emits bool, to ast.Expr) {
	if g.nodes[obj] != nil {
		return false, false, nil
	}
	if recv != nil {
		if pureWriterMethods[obj.Name()] {
			return false, false, nil
		}
		tv, ok := info.Types[recv]
		return ok && g.implementsWriter(tv.Type), true, recv
	}
	if obj.Pkg() == nil {
		return false, false, nil
	}
	switch obj.Pkg().Path() {
	case "fmt":
		name := obj.Name()
		switch {
		case name == "Print" || name == "Println" || name == "Printf":
			return true, true, nil
		case strings.HasPrefix(name, "Fprint") && len(call.Args) > 0:
			return true, true, call.Args[0]
		}
		return true, false, nil
	case "log":
		return true, true, nil
	}
	return false, false, nil
}

// escapingTarget reports whether e is rooted in something a caller can
// observe: the receiver, a parameter or named result, a package-level
// variable, or a receiver-rooted local.
func (s *bodyScan) escapingTarget(e ast.Expr) bool {
	root := rootIdent(e)
	if root == nil {
		return false
	}
	obj := s.objectOf(root)
	if obj == nil {
		return false
	}
	return obj == s.n.recvObj || s.n.paramObjs[obj] || s.rooted[obj] || isGlobalVar(s.n.pkg, obj)
}

func isGlobalVar(pkg *Package, obj types.Object) bool {
	v, isVar := obj.(*types.Var)
	return isVar && pkg.Types != nil && v.Parent() == pkg.Types.Scope()
}

func (s *bodyScan) scanAssign(as *ast.AssignStmt) {
	for _, lhs := range as.Lhs {
		if id, ok := lhs.(*ast.Ident); ok {
			if as.Tok != token.DEFINE && isGlobalVar(s.n.pkg, s.objectOf(id)) {
				s.n.mutatesGlobal = true
			}
			continue
		}
		s.noteMutation(lhs)
	}
}

// noteMutation classifies an assignment/inc-dec/delete target by its
// root: receiver-reachable state or package-level state.
func (s *bodyScan) noteMutation(target ast.Expr) {
	root := rootIdent(target)
	if root == nil {
		return
	}
	obj := s.objectOf(root)
	if obj == nil {
		return
	}
	switch {
	case s.rooted[obj]:
		s.n.mutatesRecv = true
	case isGlobalVar(s.n.pkg, obj):
		s.n.mutatesGlobal = true
	}
}

// --- fixpoints ---

func betterChain(a, b *chain) bool {
	if b == nil {
		return true
	}
	if a.dist != b.dist {
		return a.dist < b.dist
	}
	return a.pos < b.pos
}

func equalChain(a, b *chain) bool {
	if a == nil || b == nil {
		return a == b
	}
	return *a == *b
}

// solveStableChains computes, for every function, the shortest chain of
// calls to a stable-storage mutation.
func (g *graph) solveStableChains() {
	for changed := true; changed; {
		changed = false
		for _, n := range g.order {
			var best *chain
			if n.mutatesStable {
				best = &chain{dist: 1, pos: n.stablePos, leaf: n.stableCallee}
			}
			for i := range n.calls {
				e := &n.calls[i]
				cc := e.callee.stableChain
				if cc == nil {
					continue
				}
				cand := &chain{dist: cc.dist + 1, pos: e.pos, callee: e.callee}
				if betterChain(cand, best) {
					best = cand
				}
			}
			if !equalChain(best, n.stableChain) {
				n.stableChain = best
				changed = true
			}
		}
	}
}

// chainString renders n's stable-mutation chain as
// "a.B -> c.D -> pagestore.Store.Write".
func chainString(n *funcNode) string {
	parts := []string{n.displayName()}
	c := n.stableChain
	for steps := 0; c != nil && steps < 64; steps++ {
		if c.callee == nil {
			parts = append(parts, c.leaf)
			break
		}
		parts = append(parts, c.callee.displayName())
		c = c.callee.stableChain
	}
	return strings.Join(parts, " -> ")
}

// solveBools propagates journal reachability and the emission/mutation
// effect summaries.
func (g *graph) solveBools() {
	for _, n := range g.order {
		n.reachJournal = n.emitsJournal
		n.effEmit = n.emitsOutput
		n.effMutRecv = n.mutatesRecv
		n.effMutGlobal = n.mutatesGlobal
	}
	for changed := true; changed; {
		changed = false
		for _, n := range g.order {
			for i := range n.calls {
				e := &n.calls[i]
				if e.callee.reachJournal && !n.reachJournal {
					n.reachJournal = true
					changed = true
				}
				if e.callee.effEmit && !n.effEmit {
					n.effEmit = true
					changed = true
				}
				if e.callee.effMutGlobal && !n.effMutGlobal {
					n.effMutGlobal = true
					changed = true
				}
				if e.callee.effMutRecv && e.recvRooted && !n.effMutRecv {
					n.effMutRecv = true
					changed = true
				}
			}
		}
	}
}
