package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
)

// InsecureRandAnalyzer enforces the secrecy boundary around randomness.
// Shamir coefficients and XOR pads are only information-theoretically
// hiding when drawn from uniform cryptographic randomness, so:
//
//  1. Packages in secretPkgs (the share-generating and wire layers) must
//     not import math/rand or math/rand/v2 at all.
//  2. In every package, a math/rand value must not flow into an
//     io.Reader-shaped slot — a parameter, assignment target, conversion,
//     struct field, or return whose type is an interface with a Read
//     method. That is exactly how the sharing schemes consume entropy
//     (NewSplitter, NewXOR, NewAuto, NewSharingScheme all take io.Reader),
//     so the rule catches seedable simulation rngs leaking into share
//     generation no matter which constructor they pass through.
//
// Deterministic simulations, benchmarks, and choosers that genuinely need
// seedable randomness must say so: //lint:allow insecure-rand <reason>.
func InsecureRandAnalyzer(secretPkgs map[string]bool) *Analyzer {
	a := &Analyzer{
		Name: "insecure-rand",
		Doc:  "math/rand must not appear in secret-bearing packages or flow into randomness-consuming io.Reader slots",
	}
	a.Run = func(pass *Pass) {
		if secretPkgs[pass.Pkg.Path()] {
			for _, file := range pass.Files {
				for _, spec := range file.Imports {
					path, err := strconv.Unquote(spec.Path.Value)
					if err != nil {
						continue
					}
					if path == "math/rand" || path == "math/rand/v2" {
						pass.Reportf(spec.Pos(),
							"import of %s in secret-bearing package %s: share material must be generated from crypto/rand (//lint:allow insecure-rand <reason> for non-secret uses)",
							path, pass.Pkg.Path())
					}
				}
			}
		}
		for _, file := range pass.Files {
			checkRandFlows(pass, file)
		}
	}
	return a
}

// isMathRandType reports whether t (possibly behind a pointer) is declared
// in math/rand or math/rand/v2.
func isMathRandType(t types.Type) bool {
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
	pkg := named.Obj().Pkg()
	if pkg == nil {
		return false
	}
	return pkg.Path() == "math/rand" || pkg.Path() == "math/rand/v2"
}

// isReaderShaped reports whether t is an interface whose method set
// includes Read — the shape through which the sharing schemes draw
// randomness.
func isReaderShaped(t types.Type) bool {
	if t == nil {
		return false
	}
	iface, ok := t.Underlying().(*types.Interface)
	if !ok {
		return false
	}
	for i := 0; i < iface.NumMethods(); i++ {
		if iface.Method(i).Name() == "Read" {
			return true
		}
	}
	return false
}

// checkRandFlow reports expr when it carries a math/rand value into a
// Reader-shaped destination type.
func checkRandFlow(pass *Pass, dst types.Type, expr ast.Expr) {
	if expr == nil || !isReaderShaped(dst) {
		return
	}
	if src := pass.TypeOf(expr); isMathRandType(src) {
		pass.Reportf(expr.Pos(),
			"math/rand value (%s) flows into randomness slot of type %s: share randomness must be cryptographic (//lint:allow insecure-rand <reason> for simulations)",
			pass.TypeOf(expr), dst)
	}
}

// checkRandFlows walks one file looking for math/rand values crossing into
// Reader-shaped slots through calls, conversions, assignments, declarations,
// composite literals, and returns.
func checkRandFlows(pass *Pass, file *ast.File) {
	// results tracks the result tuple of the innermost function, so return
	// statements know their destination types.
	var results []*types.Tuple
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			if n.Body == nil {
				return false
			}
			if sig, ok := pass.TypeOf(n.Name).(*types.Signature); ok {
				results = append(results, sig.Results())
				ast.Inspect(n.Body, walk)
				results = results[:len(results)-1]
				return false
			}
		case *ast.FuncLit:
			if sig, ok := pass.TypeOf(n).(*types.Signature); ok {
				results = append(results, sig.Results())
				ast.Inspect(n.Body, walk)
				results = results[:len(results)-1]
				return false
			}
		case *ast.CallExpr:
			checkRandCall(pass, n)
		case *ast.AssignStmt:
			if n.Tok == token.ASSIGN && len(n.Lhs) == len(n.Rhs) {
				for i := range n.Lhs {
					checkRandFlow(pass, pass.TypeOf(n.Lhs[i]), n.Rhs[i])
				}
			}
		case *ast.ValueSpec:
			if n.Type != nil {
				dst := pass.TypeOf(n.Type)
				for _, v := range n.Values {
					checkRandFlow(pass, dst, v)
				}
			}
		case *ast.CompositeLit:
			checkRandComposite(pass, n)
		case *ast.ReturnStmt:
			if len(results) == 0 {
				break
			}
			res := results[len(results)-1]
			if res != nil && len(n.Results) == res.Len() {
				for i, r := range n.Results {
					checkRandFlow(pass, res.At(i).Type(), r)
				}
			}
		}
		return true
	}
	ast.Inspect(file, walk)
}

// checkRandCall checks a call's arguments against its parameter types, and
// conversion expressions against their target type.
func checkRandCall(pass *Pass, call *ast.CallExpr) {
	if tv, ok := pass.Info.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) == 1 {
			checkRandFlow(pass, tv.Type, call.Args[0])
		}
		return
	}
	sig, ok := pass.TypeOf(call.Fun).(*types.Signature)
	if !ok {
		return // builtin or invalid
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var param types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				param = params.At(params.Len() - 1).Type()
			} else if slice, ok := params.At(params.Len() - 1).Type().(*types.Slice); ok {
				param = slice.Elem()
			}
		case i < params.Len():
			param = params.At(i).Type()
		}
		checkRandFlow(pass, param, arg)
	}
}

// checkRandComposite checks composite literal elements against the field,
// element, or value types they initialize.
func checkRandComposite(pass *Pass, lit *ast.CompositeLit) {
	typ := pass.TypeOf(lit)
	if typ == nil {
		return
	}
	switch u := typ.Underlying().(type) {
	case *types.Struct:
		for i, elt := range lit.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				if key, ok := kv.Key.(*ast.Ident); ok {
					for j := 0; j < u.NumFields(); j++ {
						if u.Field(j).Name() == key.Name {
							checkRandFlow(pass, u.Field(j).Type(), kv.Value)
							break
						}
					}
				}
			} else if i < u.NumFields() {
				checkRandFlow(pass, u.Field(i).Type(), elt)
			}
		}
	case *types.Map:
		for _, elt := range lit.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				checkRandFlow(pass, u.Elem(), kv.Value)
			}
		}
	case *types.Slice:
		for _, elt := range lit.Elts {
			if _, ok := elt.(*ast.KeyValueExpr); !ok {
				checkRandFlow(pass, u.Elem(), elt)
			}
		}
	}
}
