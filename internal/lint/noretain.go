package lint

import (
	"go/ast"
	"go/types"
)

// NoRetainAnalyzer enforces the no-retention contract on the module's
// three borrowed-buffer boundaries: the sender reuses its datagram buffers
// from symbol to symbol, the transport readers reuse one receive buffer per
// socket, and the receiver lends each reconstructed symbol from a pooled
// buffer it wipes when the delivery callback returns. An implementation
// that stores the slice (or a subslice of it) reads later traffic, or
// zeros.
//
// Checked functions are the contract's implementations, identified by
// shape:
//
//   - methods named Send with signature func([]byte) bool (the Link
//     interface), and
//   - functions or methods named HandleDatagram whose first parameter is
//     []byte (the receiver-ingest side of ServeConcurrent), and
//   - any function annotated //remicss:noretain with a []byte parameter, and
//   - delivery callbacks: function literals bound to a ReceiverConfig's
//     OnSymbol field, or passed as Serve's third argument or as NewOrderer's
//     (NewStreamOrderer's) deliver; their first []byte parameter is the
//     lent payload.
//
// The parameter is followed through local aliases by walkAliases, and the
// analyzer reports any store of an alias into a struct field, variable
// declared outside the function (a package-level one, or one a callback
// captures), map, slice element, channel, sync.Pool, or composite literal,
// any append of an alias as an element, and any closure that captures an
// alias (it may outlive the call). Copying the bytes out (copy, append into
// a buffer the function owns) and passing the slice to another function for
// the duration of the call are both allowed; aliases laundered through
// opaque calls are a documented blind spot of the local analysis.
func NoRetainAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "noretain",
		Doc:  "Link.Send, datagram-ingest and delivery-callback implementations must not retain their []byte argument",
		Run: func(pass *Pass) {
			for _, file := range pass.Files {
				ast.Inspect(file, func(n ast.Node) bool {
					if fd, ok := n.(*ast.FuncDecl); ok && fd.Body != nil {
						walkAliases(pass, fd, fd.Name.Name, noRetainParam(pass, fd), noRetainSink("datagram"))
					}
					if lit, name := deliveryCallback(pass, n); lit != nil {
						if sig, ok := pass.TypeOf(lit).(*types.Signature); ok {
							walkAliases(pass, lit, name, firstByteSliceParam(sig), noRetainSink("payload"))
						}
					}
					return true
				})
			}
		},
	}
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

// deliveryArgs maps each function that takes a delivery callback to the
// callback's argument index.
var deliveryArgs = map[string]int{"Serve": 2, "NewOrderer": 1, "NewStreamOrderer": 1}

// deliveryCallback returns the function literal n binds to a delivery
// callback, with the name diagnostics give it: the OnSymbol element of a
// ReceiverConfig literal, or a deliveryArgs argument. The literal is nil
// when n binds none.
func deliveryCallback(pass *Pass, n ast.Node) (*ast.FuncLit, string) {
	var bound ast.Expr
	var name string
	switch n := n.(type) {
	case *ast.CompositeLit:
		if named, ok := pass.TypeOf(n).(*types.Named); ok && named.Obj().Name() == "ReceiverConfig" {
			for _, elt := range n.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok && types.ExprString(kv.Key) == "OnSymbol" {
					bound, name = kv.Value, "OnSymbol"
				}
			}
		}
	case *ast.CallExpr:
		switch fun := ast.Unparen(n.Fun).(type) {
		case *ast.Ident:
			name = fun.Name
		case *ast.SelectorExpr:
			name = fun.Sel.Name
		}
		if i, ok := deliveryArgs[name]; ok && i < len(n.Args) {
			bound = n.Args[i]
		}
	}
	lit, _ := bound.(*ast.FuncLit)
	return lit, name + " callback"
}

// noRetainSink is noretain's table of forbidden uses of an alias of the
// tracked slice, which diagnostics call what.
func noRetainSink(what string) func(*aliasWalk, ast.Node) bool {
	return func(w *aliasWalk, n ast.Node) bool {
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
					w.reportf(n.Rhs[i].Pos(), "%s stores the %s (or a subslice) into %s: the no-retention contract requires copying first", what, types.ExprString(lhs))
				case w.pass.Info.Uses[id] != nil && !w.local(w.pass.Info.Uses[id]):
					w.reportf(n.Rhs[i].Pos(), "%s stores the %s (or a subslice) into %s, declared outside it: the no-retention contract requires copying first", what, id.Name)
				}
			}
		case *ast.SendStmt:
			if w.alias(n.Value) {
				w.reportf(n.Value.Pos(), "%s sends the %s into a channel, retaining it past the call: copy first", what)
			}
		case *ast.CallExpr:
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Put" && isSyncPool(w.pass.TypeOf(sel.X)) {
				for _, arg := range n.Args {
					if w.alias(arg) {
						w.reportf(arg.Pos(), "%s puts the %s into a sync.Pool, retaining it past the call: copy first", what)
					}
				}
			}
			if isBuiltin(w.pass, n.Fun, "append") && !n.Ellipsis.IsValid() {
				for _, arg := range n.Args[1:] {
					if w.alias(arg) {
						w.reportf(arg.Pos(), "%s appends the %s to a slice as an element, retaining it past the call: copy first", what)
					}
				}
			}
		case *ast.CompositeLit:
			for _, elt := range n.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					elt = kv.Value
				}
				if w.alias(elt) {
					w.reportf(elt.Pos(), "%s stores the %s into a composite literal, which may outlive the call: copy first", what)
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
				w.reportf(n.Pos(), "closure in %s captures the %s and may run after the call returns: copy first", what)
				return false
			}
		}
		return true
	}
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
