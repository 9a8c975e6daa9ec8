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
	fd      *ast.FuncDecl
	aliases map[types.Object]bool
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
	w.pass.Reportf(pos, format, append([]any{w.fd.Name.Name}, args...)...)
}

// walkAliases walks fd's body in source order with param, if not nil, as
// the first alias. Every node goes to sink, the analyzer's table of
// forbidden uses, which returns false to skip the node's children. An
// assignment is then applied by the one alias rule, after its operands have
// been walked: a local bound to an alias becomes one, and a local bound to
// anything else stops being one — the parameter included, so reassigning it
// to a fresh buffer ends tracking.
func walkAliases(pass *Pass, fd *ast.FuncDecl, param types.Object, sink func(*aliasWalk, ast.Node) bool) {
	if param == nil {
		return
	}
	w := &aliasWalk{pass: pass, fd: fd, aliases: map[types.Object]bool{param: true}}
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
			if obj == nil || obj.Parent() == pass.Pkg.Scope() {
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
	ast.Inspect(fd.Body, visit)
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
