package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"slices"
	"strings"
)

// MutexGuardAnalyzer enforces "guarded by <mu>" field annotations: a struct
// field carrying the annotation (in its doc or trailing comment) may only be
// read or written while the named sibling mutex is held.
//
// It runs on lockorder's lock model: every selection of a guarded field is
// an access item on the held-set walk, decided by whether the mutex's class
// is held there. A Load on a field of a sync/atomic type is exempt; any
// other use of such a field still needs the lock. A function that accesses
// a guarded field without the class held gets a "requires class" summary,
// which propagates over the static call graph like lockorder's acquire sets:
// a call site holding the class discharges it, and one that does not passes
// it on to its own function. The requirement is reported, with the call
// chain, wherever it cannot be passed on: in a function whose callers the
// analysis cannot enumerate (exported, used as a function value, started as
// a goroutine, or never called from the analyzed packages), in a function
// that acquires the class itself (no caller can be holding it), and in a
// goroutine's body, which starts with nothing held.
func MutexGuardAnalyzer() *Analyzer {
	return &Analyzer{
		Name:      "mutexguard",
		Doc:       "fields annotated 'guarded by mu' must only be accessed under the guarding mutex",
		RunModule: runMutexGuard,
	}
}

// guardSite is one access to a guarded field made without its class held
// (callee nil), or one static call into the module with the classes held at
// it.
type guardSite struct {
	pkg       *Package
	pos       token.Pos
	class     lockClass // access: the guarding class
	field     string    // access: the field's name
	callee    *types.Func
	held      []lockClass // call
	goroutine bool
}

func runMutexGuard(mp *ModulePass) {
	guards := collectGuards(mp)
	if len(guards) == 0 {
		return
	}
	m := buildLockModel(mp.Pkgs, guards)
	sites := make(map[*types.Func][]guardSite)
	m.walk(func(s lockSite) {
		it := s.item
		switch {
		case it.kind == itemAccess && !slices.Contains(s.held, it.class):
			sites[s.fn] = append(sites[s.fn], guardSite{pkg: s.pkg, pos: it.pos, class: it.class, field: it.desc, goroutine: s.goroutine})
		case it.kind == itemCall && m.idx.funcs[it.fn] != nil:
			sites[s.fn] = append(sites[s.fn], guardSite{pkg: s.pkg, pos: it.pos, callee: it.fn, held: slices.Clone(s.held), goroutine: s.goroutine})
		}
	})

	unknown := unknownCallers(mp.Pkgs, m.idx)
	// stop says why fn's requirement of c is reported in fn rather than
	// passed on to its callers, or "" when it is passed on.
	stop := func(fn *types.Func, c lockClass) string {
		if m.acquires[fn][c] {
			return fmt.Sprintf("%s acquires %s itself, so no caller can be holding it", fn.Name(), c.field)
		}
		return unknown[fn]
	}
	// needs[fn][c] is the first site making fn require c of its callers.
	needs := make(map[*types.Func]map[lockClass]*guardSite)
	// missing calls f with each class site s needs and does not hold.
	missing := func(s *guardSite, f func(lockClass)) {
		if s.callee == nil {
			f(s.class)
			return
		}
		for c := range needs[s.callee] {
			if !slices.Contains(s.held, c) && stop(s.callee, c) == "" {
				f(c)
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for _, fn := range m.idx.order {
			for k := range sites[fn] {
				s := &sites[fn][k]
				if s.goroutine {
					continue
				}
				missing(s, func(c lockClass) {
					if needs[fn] == nil {
						needs[fn] = make(map[lockClass]*guardSite)
					}
					if needs[fn][c] == nil {
						needs[fn][c] = s
						changed = true
					}
				})
			}
		}
	}

	for _, fn := range m.idx.order {
		for k := range sites[fn] {
			s := &sites[fn][k]
			missing(s, func(c lockClass) {
				who, why := fn.Name(), stop(fn, c)
				if s.goroutine {
					who, why = "a goroutine in "+fn.Name(), "a goroutine starts with no lock held"
				}
				if why == "" {
					return
				}
				if s.callee == nil {
					mp.Reportf(s.pkg.Fset, s.pos, "field %s is guarded by %s but %s accesses it without locking (%s)",
						s.field, c.field, who, why)
					return
				}
				chain := []string{fn.Name()}
				w := s
				for ; w.callee != nil; w = needs[w.callee][c] {
					chain = append(chain, w.callee.Name())
				}
				chain = append(chain, w.field)
				mp.Reportf(s.pkg.Fset, s.pos, "field %s is guarded by %s but %s calls %s without locking (%s; %s)",
					w.field, c.field, who, s.callee.Name(), strings.Join(chain, " → "), why)
			})
		}
	}
}

// unknownCallers says, for each module function whose callers the analysis
// cannot enumerate, why: it is exported, used as a function value, started
// as a goroutine, or never called from the analyzed packages (main, init,
// helpers only tests call, methods reached only through an interface).
func unknownCallers(pkgs []*Package, idx *moduleIndex) map[*types.Func]string {
	why := make(map[*types.Func]string)
	called := make(map[*types.Func]bool)
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			callees := make(map[*ast.Ident]bool)
			ast.Inspect(file, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.GoStmt:
					if fn := staticCallee(pkg.Info, n.Call); fn != nil {
						why[fn] = fmt.Sprintf("%s is started as a goroutine", fn.Name())
					}
				case *ast.CallExpr:
					fun := ast.Unparen(n.Fun)
					if sel, ok := fun.(*ast.SelectorExpr); ok {
						fun = sel.Sel
					}
					if id, ok := fun.(*ast.Ident); ok {
						callees[id] = true
					}
				case *ast.Ident:
					fn, ok := pkg.Info.Uses[n].(*types.Func)
					switch {
					case !ok || idx.funcs[fn] == nil:
					case callees[n]:
						called[fn] = true
					case why[fn] == "":
						why[fn] = fmt.Sprintf("%s is used as a function value", fn.Name())
					}
				}
				return true
			})
		}
	}
	for _, fn := range idx.order {
		switch {
		case fn.Exported():
			why[fn] = fmt.Sprintf("%s is exported", fn.Name())
		case why[fn] == "" && !called[fn]:
			why[fn] = fmt.Sprintf("nothing in the analyzed packages calls %s", fn.Name())
		}
	}
	return why
}

// collectGuards maps each annotated field object to the lock class of the
// sibling mutex that guards it, reporting annotations that name a
// nonexistent sibling.
func collectGuards(mp *ModulePass) map[types.Object]lockClass {
	guards := make(map[types.Object]lockClass)
	for _, pkg := range mp.Pkgs {
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				ts, ok := n.(*ast.TypeSpec)
				if !ok {
					return true
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					return true
				}
				names := make(map[string]bool)
				for _, field := range st.Fields.List {
					for _, name := range field.Names {
						names[name.Name] = true
					}
				}
				for _, field := range st.Fields.List {
					mu := guardAnnotation(field)
					if mu == "" {
						continue
					}
					if !names[mu] {
						mp.Reportf(pkg.Fset, field.Pos(), "field is annotated 'guarded by %s' but struct %s has no field of that name", mu, ts.Name.Name)
						continue
					}
					for _, name := range field.Names {
						if obj := pkg.Info.Defs[name]; obj != nil {
							guards[obj] = lockClass{owner: ts.Name.Name, field: mu}
						}
					}
				}
				return true
			})
		}
	}
	return guards
}

// guardedRe extracts the mutex field name from a "guarded by <field>" field
// annotation.
var guardedRe = regexp.MustCompile(`guarded by ([A-Za-z_][A-Za-z0-9_]*)`)

// guardAnnotation returns the guarding field named by a field's doc or
// trailing comment, or "" when the field carries no annotation.
func guardAnnotation(field *ast.Field) string {
	for _, group := range []*ast.CommentGroup{field.Doc, field.Comment} {
		if group == nil {
			continue
		}
		if m := guardedRe.FindStringSubmatch(group.Text()); m != nil {
			return m[1]
		}
	}
	return ""
}
