package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// aliasWalk is the state of one walk: which locals currently alias the
// tracked parameter.
type aliasWalk struct {
	pass    *Pass
	fn      ast.Node // the checked *ast.FuncDecl or *ast.FuncLit
	name    string   // how diagnostics name fn
	aliases map[types.Object]bool
}

// local reports whether obj is declared inside the checked function, so a
// value bound to it goes out of scope with the call.
func (w *aliasWalk) local(obj types.Object) bool {
	return obj != nil && w.fn.Pos() <= obj.Pos() && obj.Pos() < w.fn.End()
}

// alias reports whether e evaluates to a slice sharing the parameter's
// backing array: a tracked name, a subslice of one, or an append to one
// (append may return the same array).
func (w *aliasWalk) alias(e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return w.aliases[w.pass.Info.Uses[e]]
	case *ast.SliceExpr:
		return w.alias(e.X)
	case *ast.CallExpr:
		return isBuiltin(w.pass, e.Fun, "append") && len(e.Args) > 0 && w.alias(e.Args[0])
	}
	return false
}

// reportf reports at pos, passing the checked function's name as the
// format's first argument.
func (w *aliasWalk) reportf(pos token.Pos, format string, args ...any) {
	w.pass.Reportf(pos, format, append([]any{w.name}, args...)...)
}

// walkAliases walks the body of fn, a *ast.FuncDecl or *ast.FuncLit that
// diagnostics call name, in source order with param, if not nil, as the
// first alias. Every node goes to sink, the analyzer's table of
// forbidden uses, which returns false to skip the node's children. An
// assignment is then applied by the one alias rule, after its operands have
// been walked: a local bound to an alias becomes one, and a local bound to
// anything else stops being one — the parameter included, so reassigning it
// to a fresh buffer ends tracking. Variables declared outside fn are never
// aliases: binding one is for the sink to judge.
func walkAliases(pass *Pass, fn ast.Node, name string, param types.Object, sink func(*aliasWalk, ast.Node) bool) {
	if param == nil {
		return
	}
	var body *ast.BlockStmt
	switch fn := fn.(type) {
	case *ast.FuncDecl:
		body = fn.Body
	case *ast.FuncLit:
		body = fn.Body
	}
	w := &aliasWalk{pass: pass, fn: fn, name: name, aliases: map[types.Object]bool{param: true}}
	var visit func(ast.Node) bool
	visit = func(n ast.Node) bool {
		if !sink(w, n) {
			return false
		}
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for _, e := range as.Rhs {
			ast.Inspect(e, visit)
		}
		for _, e := range as.Lhs {
			ast.Inspect(e, visit)
		}
		if len(as.Lhs) != len(as.Rhs) {
			return false
		}
		bound := make([]bool, len(as.Rhs))
		for i, e := range as.Rhs {
			bound[i] = w.alias(e)
		}
		for i, e := range as.Lhs {
			id, ok := e.(*ast.Ident)
			if !ok {
				continue
			}
			obj := pass.Info.Defs[id]
			if obj == nil {
				obj = pass.Info.Uses[id]
			}
			if !w.local(obj) {
				continue
			}
			if bound[i] {
				w.aliases[obj] = true
			} else {
				delete(w.aliases, obj)
			}
		}
		return false
	}
	ast.Inspect(body, visit)
}

func isByteSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Byte
}

// firstByteSliceParam returns sig's first []byte parameter, or nil.
func firstByteSliceParam(sig *types.Signature) types.Object {
	for i := 0; i < sig.Params().Len(); i++ {
		if isByteSlice(sig.Params().At(i).Type()) {
			return sig.Params().At(i)
		}
	}
	return nil
}
