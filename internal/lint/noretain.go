package lint

import (
	"go/ast"
	"go/types"
)

// NoRetainAnalyzer enforces the Link "no datagram retention" contract: the
// sender reuses one marshal buffer for every share, and the transport
// readers reuse one receive buffer per socket, so an implementation that
// stores the datagram slice (or a subslice of it) corrupts later traffic.
//
// Checked functions are the contract's implementations, identified by
// shape:
//
//   - methods named Send with signature func([]byte) bool (the Link
//     interface), and
//   - functions or methods named HandleDatagram whose first parameter is
//     []byte (the receiver-ingest side of ServeConcurrent), and
//   - any function annotated //remicss:noretain with a []byte parameter.
//
// The parameter is followed through local aliases by walkAliases, and the
// analyzer reports any store of an alias into a struct field, package-level
// variable, map, slice element, channel, sync.Pool, or composite literal,
// and any closure that captures an alias (it may outlive the call). Copying
// the bytes out (copy, append into a buffer the function owns) and passing
// the slice to another function for the duration of the call are both
// allowed; aliases laundered through opaque calls are a documented blind
// spot of the local analysis.
func NoRetainAnalyzer() *Analyzer {
	return funcAnalyzer("noretain",
		"Link.Send and datagram-ingest implementations must not retain their []byte argument",
		func(pass *Pass, fd *ast.FuncDecl) { walkAliases(pass, fd, noRetainParam(pass, fd), noRetainSink) })
}

// noRetainParam returns the tracked []byte parameter object when fd matches
// one of the no-retention contract shapes, nil otherwise.
func noRetainParam(pass *Pass, fd *ast.FuncDecl) types.Object {
	sig, ok := pass.TypeOf(fd.Name).(*types.Signature)
	if !ok {
		return nil
	}
	switch {
	case fd.Recv != nil && fd.Name.Name == "Send" &&
		sig.Params().Len() == 1 && isByteSlice(sig.Params().At(0).Type()) &&
		sig.Results().Len() == 1 && isBool(sig.Results().At(0).Type()):
		return sig.Params().At(0)
	case fd.Name.Name == "HandleDatagram" && sig.Params().Len() >= 1 && isByteSlice(sig.Params().At(0).Type()):
		return sig.Params().At(0)
	case hasMarker(fd.Doc, "noretain"):
		return firstByteSliceParam(sig)
	}
	return nil
}

// noRetainSink is noretain's table of forbidden uses of an alias.
func noRetainSink(w *aliasWalk, n ast.Node) bool {
	switch n := n.(type) {
	case *ast.AssignStmt:
		if len(n.Lhs) != len(n.Rhs) {
			break
		}
		for i, lhs := range n.Lhs {
			if !w.alias(n.Rhs[i]) {
				continue
			}
			id, ok := lhs.(*ast.Ident)
			switch {
			case !ok:
				w.reportf(n.Rhs[i].Pos(), "%s stores the datagram (or a subslice) into %s: the no-retention contract requires copying first", types.ExprString(lhs))
			case w.pass.Info.Uses[id] != nil && w.pass.Info.Uses[id].Parent() == w.pass.Pkg.Scope():
				w.reportf(n.Rhs[i].Pos(), "%s stores the datagram (or a subslice) into package-level variable %s: the no-retention contract requires copying first", id.Name)
			}
		}
	case *ast.SendStmt:
		if w.alias(n.Value) {
			w.reportf(n.Value.Pos(), "%s sends the datagram into a channel, retaining it past the call: copy first")
		}
	case *ast.CallExpr:
		if sel, ok := n.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Put" && isSyncPool(w.pass.TypeOf(sel.X)) {
			for _, arg := range n.Args {
				if w.alias(arg) {
					w.reportf(arg.Pos(), "%s puts the datagram into a sync.Pool, retaining it past the call: copy first")
				}
			}
		}
	case *ast.CompositeLit:
		for _, elt := range n.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				elt = kv.Value
			}
			if w.alias(elt) {
				w.reportf(elt.Pos(), "%s stores the datagram into a composite literal, which may outlive the call: copy first")
			}
		}
	case *ast.FuncLit:
		captured := false
		ast.Inspect(n.Body, func(m ast.Node) bool {
			if id, ok := m.(*ast.Ident); ok && w.aliases[w.pass.Info.Uses[id]] {
				captured = true
			}
			return !captured
		})
		if captured {
			w.reportf(n.Pos(), "closure in %s captures the datagram and may run after Send returns: copy first")
			return false
		}
	}
	return true
}

func isBool(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Kind() == types.Bool
}

// isSyncPool reports whether t is sync.Pool or *sync.Pool.
func isSyncPool(t types.Type) bool {
	if t == nil {
		return false
	}
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" && obj.Name() == "Pool"
}
