package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// NoAllocAnalyzer enforces the //remicss:noalloc annotation: functions so
// marked form the zero-allocation share data path (the gf256 kernels,
// SplitInto/CombineInto, AppendMarshal, the sender hot path) and must not
// contain allocating constructs:
//
//   - make, new
//   - slice and map composite literals, and &T{} literals (heap escapes)
//   - function literals (closure environments allocate)
//   - go statements (a goroutine allocates its stack)
//   - string concatenation and string<->[]byte/[]rune conversions
//   - boxing a non-pointer value into an interface
//   - append whose result is not assigned back to the appended slice
//     (growing a foreign buffer; x = append(x, ...) is the amortized
//     buffer-reuse discipline and is permitted)
//
// Function calls are deliberately opaque — the analyzer is local, and error
// paths (fmt.Errorf and friends) are exempt from the steady-state budget.
// For the same reason, conversions into variadic ...any parameters are not
// reported: in this codebase they occur exclusively in error formatting.
// An amortized growth path inside a noalloc function must be annotated
// //lint:allow noalloc <reason> on the allocating line.
func NoAllocAnalyzer() *Analyzer {
	return funcAnalyzer("noalloc", "functions marked //remicss:noalloc must not contain allocating constructs", checkNoAlloc)
}

// checkNoAlloc walks one function body, if it is annotated.
func checkNoAlloc(pass *Pass, fd *ast.FuncDecl) {
	if !hasMarker(fd.Doc, "noalloc") {
		return
	}
	// selfAppend marks append calls whose result is assigned back to the
	// same slice expression they grow — the amortized reuse pattern.
	selfAppend := make(map[*ast.CallExpr]bool)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		assign, ok := n.(*ast.AssignStmt)
		if !ok || len(assign.Lhs) != len(assign.Rhs) {
			return true
		}
		for i, rhs := range assign.Rhs {
			call, ok := rhs.(*ast.CallExpr)
			if !ok || !isBuiltin(pass, call.Fun, "append") || len(call.Args) == 0 {
				continue
			}
			if types.ExprString(stripSlicing(call.Args[0])) == types.ExprString(assign.Lhs[i]) {
				selfAppend[call] = true
			}
		}
		return true
	})

	sig, _ := pass.TypeOf(fd.Name).(*types.Signature)
	var results []*types.Tuple
	if sig != nil {
		results = append(results, sig.Results())
	}
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			pass.Reportf(n.Pos(), "function literal in noalloc function %s: closures allocate their environment", fd.Name.Name)
			return false
		case *ast.GoStmt:
			pass.Reportf(n.Pos(), "go statement in noalloc function %s: spawning a goroutine allocates", fd.Name.Name)
		case *ast.CompositeLit:
			t := pass.TypeOf(n)
			if t == nil {
				break
			}
			switch t.Underlying().(type) {
			case *types.Slice:
				pass.Reportf(n.Pos(), "slice literal in noalloc function %s allocates", fd.Name.Name)
			case *types.Map:
				pass.Reportf(n.Pos(), "map literal in noalloc function %s allocates", fd.Name.Name)
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := n.X.(*ast.CompositeLit); ok {
					pass.Reportf(n.Pos(), "&composite literal in noalloc function %s escapes to the heap", fd.Name.Name)
				}
			}
		case *ast.BinaryExpr:
			if n.Op == token.ADD && pass.TypeOf(n) != nil {
				if t, ok := pass.TypeOf(n).Underlying().(*types.Basic); ok && t.Info()&types.IsString != 0 {
					pass.Reportf(n.Pos(), "string concatenation in noalloc function %s allocates", fd.Name.Name)
				}
			}
		case *ast.CallExpr:
			checkNoAllocCall(pass, fd, n, selfAppend)
		case *ast.AssignStmt:
			if n.Tok == token.ASSIGN && len(n.Lhs) == len(n.Rhs) {
				for i := range n.Lhs {
					checkBoxing(pass, fd, pass.TypeOf(n.Lhs[i]), n.Rhs[i])
				}
			}
		case *ast.ReturnStmt:
			if len(results) == 0 {
				break
			}
			res := results[len(results)-1]
			if res != nil && len(n.Results) == res.Len() {
				for i, r := range n.Results {
					checkBoxing(pass, fd, res.At(i).Type(), r)
				}
			}
		}
		return true
	}
	ast.Inspect(fd.Body, walk)
}

// checkNoAllocCall classifies one call inside a noalloc function: builtins
// that allocate, allocating conversions, and interface boxing at the call
// boundary.
func checkNoAllocCall(pass *Pass, fd *ast.FuncDecl, call *ast.CallExpr, selfAppend map[*ast.CallExpr]bool) {
	if id, ok := call.Fun.(*ast.Ident); ok {
		if b, ok := pass.Info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				pass.Reportf(call.Pos(), "make in noalloc function %s allocates (//lint:allow noalloc <reason> for amortized growth paths)", fd.Name.Name)
			case "new":
				pass.Reportf(call.Pos(), "new in noalloc function %s allocates", fd.Name.Name)
			case "append":
				if !selfAppend[call] {
					pass.Reportf(call.Pos(), "append in noalloc function %s grows a buffer it does not own (assign the result back to the appended slice, or //lint:allow noalloc <reason>)", fd.Name.Name)
				}
			}
			return
		}
	}
	if tv, ok := pass.Info.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) == 1 {
			checkConversionAlloc(pass, fd, tv.Type, call.Args[0])
		}
		return
	}
	sig, ok := pass.TypeOf(call.Fun).(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		// Variadic tails are exempt: in this codebase they are the ...any
		// of error formatting, which only runs on error paths.
		if sig.Variadic() && i >= params.Len()-1 {
			break
		}
		if i < params.Len() {
			checkBoxing(pass, fd, params.At(i).Type(), arg)
		}
	}
}

// checkConversionAlloc reports string<->byte-slice conversions, which copy.
func checkConversionAlloc(pass *Pass, fd *ast.FuncDecl, dst types.Type, arg ast.Expr) {
	src := pass.TypeOf(arg)
	if src == nil {
		return
	}
	if isString(dst) && isByteOrRuneSlice(src) || isByteOrRuneSlice(dst) && isString(src) {
		pass.Reportf(arg.Pos(), "string/slice conversion in noalloc function %s copies its operand", fd.Name.Name)
		return
	}
	checkBoxing(pass, fd, dst, arg)
}

// checkBoxing reports a non-pointer-shaped value converted into an
// interface, which allocates the boxed copy. Pointer-shaped values (whose
// interface representation is the word itself) and constants are exempt.
func checkBoxing(pass *Pass, fd *ast.FuncDecl, dst types.Type, expr ast.Expr) {
	if dst == nil || expr == nil {
		return
	}
	if _, ok := dst.Underlying().(*types.Interface); !ok {
		return
	}
	tv, ok := pass.Info.Types[expr]
	if !ok || tv.Value != nil || tv.IsNil() {
		return
	}
	src := tv.Type
	if src == nil || types.IsInterface(src) || isPointerShaped(src) {
		return
	}
	pass.Reportf(expr.Pos(), "value of type %s boxed into interface %s in noalloc function %s allocates", src, dst, fd.Name.Name)
}

// isBuiltin reports whether fun names the given predeclared builtin.
func isBuiltin(pass *Pass, fun ast.Expr, name string) bool {
	id, ok := fun.(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := pass.Info.Uses[id].(*types.Builtin)
	return ok && b.Name() == name
}

// stripSlicing unwraps e[a:b] and (e) wrappers down to the base expression,
// so append(dst[:0], ...) assigned to dst counts as self-append.
func stripSlicing(e ast.Expr) ast.Expr {
	for {
		switch x := e.(type) {
		case *ast.SliceExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return e
		}
	}
}

func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	e, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (e.Kind() == types.Byte || e.Kind() == types.Rune || e.Kind() == types.Uint8 || e.Kind() == types.Int32)
}

// isPointerShaped reports whether a value of type t fits in an interface
// word without boxing: pointers, channels, maps, funcs, and unsafe
// pointers.
func isPointerShaped(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	case *types.Basic:
		return t.Underlying().(*types.Basic).Kind() == types.UnsafePointer
	}
	return false
}
