package lint

// escape.go is the D007 alias analysis: exported kernel methods must
// not hand out (or swallow) pointers, slices, or maps that alias
// internal kernel state, because the engine.Guard serializes *calls*,
// not the lifetime of the data they return — an aliased page buffer
// read outside the Guard races with the next kernel mutation. The
// analysis is a deliberately simple two-direction taint:
//
//   - return direction: a returned expression whose value is rooted in
//     the receiver (directly or through local variables and
//     alias-returning helper calls) escapes kernel state;
//   - store direction: an assignment that plants a parameter-derived
//     aliasing value into receiver-reachable state captures caller
//     memory inside the kernel.
//
// Copy idioms break the taint naturally: append([]T(nil), x...) and
// make+copy produce fresh backing arrays, composite literals are fresh
// unless an element itself aliases, and calls into functions without
// alias-returning summaries (pagestore.Store.Read copies, for one) are
// fresh. Two boundary types are exempt by design: *pagestore.Store is
// the thread-safe stable-storage substrate the wrapper layer is meant
// to share, and *obs.Journal is the sanctioned deterministic journal
// sink injected from above the Guard.

import (
	"go/ast"
	"go/token"
	"go/types"
	"path"
)

type aliasMask uint8

const (
	aliasRecv aliasMask = 1 << iota
	aliasParam
)

// aliasingType reports whether a value of type t can carry an alias of
// other state: pointers, slices, maps, chans, funcs, interfaces, and
// any struct/array that contains one.
func aliasingType(t types.Type) bool {
	return aliasingTypeDepth(t, map[types.Type]bool{})
}

var errorType = types.Universe.Lookup("error").Type()

func aliasingTypeDepth(t types.Type, seen map[types.Type]bool) bool {
	if t == nil || seen[t] {
		return false
	}
	// error values are conventionally fresh (message + static sentinel);
	// without this, every (T, error) helper result taints its err local.
	if types.Identical(t, errorType) {
		return false
	}
	seen[t] = true
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Slice, *types.Map, *types.Chan, *types.Signature, *types.Interface:
		return true
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if aliasingTypeDepth(u.Field(i).Type(), seen) {
				return true
			}
		}
	case *types.Array:
		return aliasingTypeDepth(u.Elem(), seen)
	}
	return false
}

// boundaryExempt reports the two types that may legally cross the Guard
// boundary by reference (see the package comment).
func boundaryExempt(t types.Type) bool {
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named := namedOf(t)
	if named == nil || named.Obj().Pkg() == nil {
		return false
	}
	base := path.Base(named.Obj().Pkg().Path())
	name := named.Obj().Name()
	return (base == "pagestore" && name == "Store") || (base == "obs" && name == "Journal")
}

// aliasScope judges expressions inside one function body.
type aliasScope struct {
	g      *graph
	n      *funcNode
	locals map[types.Object]aliasMask
}

func newAliasScope(g *graph, n *funcNode) *aliasScope {
	s := &aliasScope{g: g, n: n, locals: map[types.Object]aliasMask{}}
	// Two passes over local bindings so chains of assignments resolve
	// regardless of textual order (loop-carried rebinding included).
	for range 2 {
		ast.Inspect(n.decl.Body, func(x ast.Node) bool {
			switch x := x.(type) {
			case *ast.AssignStmt:
				for i, lhs := range x.Lhs {
					id, ok := lhs.(*ast.Ident)
					if !ok {
						continue
					}
					obj := s.objectOf(id)
					if obj == nil || obj == n.recvObj || n.paramObjs[obj] {
						continue
					}
					var m aliasMask
					if len(x.Rhs) == len(x.Lhs) {
						m = s.judge(x.Rhs[i])
					} else if len(x.Rhs) == 1 {
						m = s.judge(x.Rhs[0]) // multi-value call / map lookup
					}
					s.locals[obj] |= m
				}
			case *ast.ValueSpec:
				for i, id := range x.Names {
					obj := s.objectOf(id)
					if obj == nil {
						continue
					}
					if i < len(x.Values) {
						s.locals[obj] |= s.judge(x.Values[i])
					} else if len(x.Values) == 1 {
						s.locals[obj] |= s.judge(x.Values[0])
					}
				}
			case *ast.RangeStmt:
				m := s.judge(x.X)
				for _, e := range []ast.Expr{x.Key, x.Value} {
					if id, ok := e.(*ast.Ident); ok {
						if obj := s.objectOf(id); obj != nil {
							s.locals[obj] |= m
						}
					}
				}
			}
			return true
		})
	}
	return s
}

func (s *aliasScope) objectOf(id *ast.Ident) types.Object {
	if obj := s.n.pkg.Info.Uses[id]; obj != nil {
		return obj
	}
	return s.n.pkg.Info.Defs[id]
}

func (s *aliasScope) typeOf(e ast.Expr) types.Type {
	if tv, ok := s.n.pkg.Info.Types[e]; ok {
		return tv.Type
	}
	return nil
}

// judge computes which state an expression's value may alias.
func (s *aliasScope) judge(e ast.Expr) aliasMask {
	switch e := e.(type) {
	case *ast.Ident:
		obj := s.objectOf(e)
		switch {
		case obj == nil:
			return 0
		case obj == s.n.recvObj:
			return aliasRecv
		case s.n.paramObjs[obj]:
			return aliasParam
		default:
			return s.locals[obj]
		}
	case *ast.SelectorExpr:
		return s.judge(e.X) // pkg selectors root in a PkgName and judge clean
	case *ast.IndexExpr:
		return s.judge(e.X)
	case *ast.SliceExpr:
		return s.judge(e.X) // reslicing shares the backing array
	case *ast.StarExpr:
		return s.judge(e.X)
	case *ast.ParenExpr:
		return s.judge(e.X)
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return s.judge(e.X)
		}
		return 0
	case *ast.CompositeLit:
		var m aliasMask
		for _, elt := range e.Elts {
			v := elt
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				v = kv.Value
			}
			if aliasingType(s.typeOf(v)) {
				m |= s.judge(v)
			}
		}
		return m
	case *ast.CallExpr:
		return s.judgeCall(e)
	}
	return 0
}

func (s *aliasScope) judgeCall(call *ast.CallExpr) aliasMask {
	fun := unparen(call.Fun)
	// Conversions: []byte(string) copies; slice/map/pointer conversions
	// keep the operand's aliasing.
	if tv, ok := s.n.pkg.Info.Types[fun]; ok && tv.IsType() && len(call.Args) == 1 {
		if aliasingType(tv.Type) && aliasingType(s.typeOf(call.Args[0])) {
			return s.judge(call.Args[0])
		}
		return 0
	}
	switch f := fun.(type) {
	case *ast.Ident:
		if _, ok := s.objectOf(f).(*types.Builtin); ok {
			switch f.Name {
			case "append":
				var m aliasMask
				if len(call.Args) > 0 {
					m = s.judge(call.Args[0]) // append([]T(nil), ...) judges fresh
				}
				for i, arg := range call.Args[1:] {
					t := s.typeOf(arg)
					if call.Ellipsis.IsValid() && i == len(call.Args)-2 {
						if sl, ok := t.Underlying().(*types.Slice); ok {
							t = sl.Elem() // spread copies the slice header, not the elements
						}
					}
					if aliasingType(t) {
						m |= s.judge(arg)
					}
				}
				return m
			default:
				return 0 // make, new, len, cap, copy, min, max ...
			}
		}
		if _, ok := s.objectOf(f).(*types.Func); ok {
			return 0 // plain function results are treated as fresh
		}
	case *ast.SelectorExpr:
		obj, ok := s.n.pkg.Info.Uses[f.Sel].(*types.Func)
		if !ok {
			return 0
		}
		// A method that returns an alias of its own receiver transfers
		// the receiver expression's taint to its result (getPage-style
		// accessors). Everything else — including pagestore.Store.Read,
		// which copies — produces fresh values.
		if callee := s.g.nodes[obj]; callee != nil && callee.returnsRecvAlias {
			if sig, isSig := obj.Type().(*types.Signature); isSig && sig.Recv() != nil {
				return s.judge(f.X)
			}
		}
	}
	return 0
}

// returnsRecvAliasNow recomputes the summary for n with the current
// state of every other summary.
func returnsRecvAliasNow(g *graph, n *funcNode) bool {
	if n.recvObj == nil {
		return false
	}
	s := newAliasScope(g, n)
	found := false
	ast.Inspect(n.decl.Body, func(x ast.Node) bool {
		if found {
			return false
		}
		if _, isLit := x.(*ast.FuncLit); isLit {
			return false // returns inside literals return from the literal
		}
		ret, ok := x.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		for _, res := range ret.Results {
			if aliasingType(s.typeOf(res)) && s.judge(res)&aliasRecv != 0 {
				found = true
			}
		}
		return true
	})
	return found
}

// solveAliasSummaries iterates returnsRecvAlias to a fixpoint: a method
// returning the result of another alias-returning method is itself
// alias-returning. The predicate is monotone, so the loop terminates.
func solveAliasSummaries(g *graph) {
	for changed := true; changed; {
		changed = false
		for _, n := range g.order {
			if !n.returnsRecvAlias && returnsRecvAliasNow(g, n) {
				n.returnsRecvAlias = true
				changed = true
			}
		}
	}
}

// escapeFinding is one D007 diagnostic site found in a method body.
type escapeFinding struct {
	pos token.Pos
	msg string
}

// escapeFindings runs both taint directions over one exported kernel
// method.
func escapeFindings(g *graph, n *funcNode) []escapeFinding {
	s := newAliasScope(g, n)
	var out []escapeFinding
	ast.Inspect(n.decl.Body, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ReturnStmt:
			for _, res := range x.Results {
				t := s.typeOf(res)
				if !aliasingType(t) || boundaryExempt(t) {
					continue
				}
				if s.judge(res)&aliasRecv != 0 {
					out = append(out, escapeFinding{pos: x.Pos(), msg: "returns " + exprString(res) +
						", which aliases kernel state: copy before returning (append([]T(nil), x...)) so no reference crosses the Guard boundary"})
				}
			}
		case *ast.AssignStmt:
			for i, lhs := range x.Lhs {
				if _, isIdent := lhs.(*ast.Ident); isIdent {
					continue // rebinding a variable stores nothing into kernel state
				}
				if s.judge(lhs)&aliasRecv == 0 {
					continue
				}
				var rhs ast.Expr
				if len(x.Rhs) == len(x.Lhs) {
					rhs = x.Rhs[i]
				} else if len(x.Rhs) == 1 {
					rhs = x.Rhs[0]
				}
				if rhs == nil {
					continue
				}
				t := s.typeOf(rhs)
				if !aliasingType(t) || boundaryExempt(t) {
					continue
				}
				if s.judge(rhs)&aliasParam != 0 {
					out = append(out, escapeFinding{pos: x.Pos(), msg: "stores caller-provided " + exprString(rhs) +
						" into kernel state without a copy: the caller keeps an alias into the kernel across the Guard boundary"})
				}
			}
		}
		return true
	})
	return out
}
