package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// ReadOnlyInputAnalyzer enforces the read-only-input contract of the wire
// decoders: Unmarshal and UnmarshalReport parse datagrams in place from
// buffers owned by the transport, so writing through the input slice (even
// transiently, e.g. zeroing the checksum field before re-computing it)
// corrupts buffers shared with concurrent readers.
//
// Checked functions are those whose name starts with "Unmarshal" and that
// take a []byte parameter, plus any function annotated //remicss:readonly
// with a []byte parameter. The first []byte parameter is followed through
// local aliases by walkAliases (the same walker noretain uses), and the
// analyzer reports element writes, copy/clear/append with an alias as
// destination, and binary.ByteOrder Put* calls targeting an alias.
func ReadOnlyInputAnalyzer() *Analyzer {
	return funcAnalyzer("readonly-input",
		"Unmarshal-shaped functions must not write through their input slice",
		func(pass *Pass, fd *ast.FuncDecl) { walkAliases(pass, fd, readOnlyParam(pass, fd), readOnlySink) })
}

// readOnlyParam returns the input []byte parameter object when fd is an
// Unmarshal-shaped or //remicss:readonly-annotated function, nil otherwise.
func readOnlyParam(pass *Pass, fd *ast.FuncDecl) types.Object {
	if !strings.HasPrefix(fd.Name.Name, "Unmarshal") && !hasMarker(fd.Doc, "readonly") {
		return nil
	}
	sig, ok := pass.TypeOf(fd.Name).(*types.Signature)
	if !ok {
		return nil
	}
	return firstByteSliceParam(sig)
}

// readOnlySink is readonly-input's table of forbidden uses of an alias.
func readOnlySink(w *aliasWalk, n ast.Node) bool {
	switch n := n.(type) {
	case *ast.AssignStmt:
		for _, lhs := range n.Lhs {
			if idx, ok := lhs.(*ast.IndexExpr); ok && w.alias(idx.X) {
				w.reportf(lhs.Pos(), "%s writes to its input slice: the read-only contract forbids mutating the caller's buffer")
			}
		}
	case *ast.CallExpr:
		if len(n.Args) == 0 || !w.alias(n.Args[0]) {
			break
		}
		if id, ok := n.Fun.(*ast.Ident); ok {
			if b, ok := w.pass.Info.Uses[id].(*types.Builtin); ok {
				switch b.Name() {
				case "copy", "append", "clear":
					w.reportf(n.Args[0].Pos(), "%s passes its input slice to %s as the destination, which writes to the caller's buffer", b.Name())
				}
			}
		}
		if sel, ok := n.Fun.(*ast.SelectorExpr); ok && strings.HasPrefix(sel.Sel.Name, "Put") {
			w.reportf(n.Args[0].Pos(), "%s writes to its input slice via %s: the read-only contract forbids mutating the caller's buffer", sel.Sel.Name)
		}
	}
	return true
}
