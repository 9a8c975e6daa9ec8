package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"sort"
	"strings"
)

// LockOrderAnalyzer returns the module-wide lock-acquisition-order analyzer.
// It abstracts every sync.Mutex/RWMutex in the module into a lock class —
// (owning struct type, field name) for mutex fields, with an array of
// mutexes like the sender's per-link linkMu collapsing to one class, or
// (package, var name) for package-level mutexes — and builds the directed
// graph of "class B acquired while class A is held". An acquisition is
// charged both for a literal Lock call inside the held region and for a
// static call to a module function whose transitive acquire set (computed by
// fixed point over the call graph) contains the class.
//
// It reports three things: cycles in the class graph (potential deadlocks),
// calls that re-acquire a class already held (self-deadlock), and dynamic
// calls (interface methods, function values) performed while a lock is held
// — code the analysis cannot see into and which may therefore block or
// re-enter arbitrarily. The last is the finding to suppress, with a reason,
// at the module's deliberate callback-under-lock sites.
func LockOrderAnalyzer() *Analyzer {
	return &Analyzer{
		Name:      "lockorder",
		Doc:       "lock acquisition order must be acyclic, and code must not call into unknown code while holding a lock",
		RunModule: runLockOrder,
	}
}

// lockClass names one abstract lock. All mutexes reached through the same
// struct field (across all instances, including array/slice elements) are
// one class.
type lockClass struct {
	owner string // named type or package owning the mutex
	field string // field or variable name
}

func (c lockClass) String() string { return c.owner + "." + c.field }

// lockItemKind says what one step of a timeline does.
type lockItemKind int

const (
	itemAcquire lockItemKind = iota // Lock/RLock/TryLock on class
	itemRelease                     // Unlock/RUnlock on class
	itemCall                        // any other call: static (fn) or dynamic
	itemAccess                      // a selection of a field guarded by class
	itemClosure                     // a function literal, whose timeline is child
	itemScope                       // a block ending in return, which closes at end
)

// lockItem is one step of a timeline, at its source position.
type lockItem struct {
	pos      token.Pos
	kind     lockItemKind
	class    lockClass   // acquire, release, access
	deferred bool        // release: runs at function exit
	fn       *types.Func // call: the static callee, nil for dynamic dispatch
	desc     string      // call: display form of the callee; access: field name
	child    int         // closure: index of the literal's timeline
	end      token.Pos   // scope: where the returning block ends
}

// lockTimeline is one linear execution context: a function body, or a
// function literal's body. concurrent marks go-statement closures (and
// literals nested in them), which start with nothing held and whose
// acquisitions are not charged to the enclosing function's summary; any
// other literal starts with the locks held where it is defined.
type lockTimeline struct {
	items      []lockItem
	concurrent bool
}

// lockModel is the module's lock facts: every declared function's timelines
// (index 0 is the body, literals follow) and its transitive acquire set.
type lockModel struct {
	idx       *moduleIndex
	timelines map[*types.Func][]lockTimeline
	acquires  map[*types.Func]map[lockClass]bool
}

// buildLockModel collects the timelines of every function in pkgs, recording
// selections of the fields in guards as accesses, and computes acquire sets
// by fixed point: a function acquires what it locks directly (including in
// non-goroutine closures, which run within the call) plus whatever its
// static module callees acquire.
func buildLockModel(pkgs []*Package, guards map[types.Object]lockClass) *lockModel {
	m := &lockModel{
		idx:       indexModule(pkgs),
		timelines: make(map[*types.Func][]lockTimeline),
		acquires:  make(map[*types.Func]map[lockClass]bool),
	}
	for _, fn := range m.idx.order {
		di := m.idx.funcs[fn]
		m.timelines[fn] = collectLockFacts(di.pkg, di.decl, guards)
		m.acquires[fn] = make(map[lockClass]bool)
		for _, tl := range m.timelines[fn] {
			for _, it := range tl.items {
				if !tl.concurrent && it.kind == itemAcquire {
					m.acquires[fn][it.class] = true
				}
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for _, fn := range m.idx.order {
			for _, tl := range m.timelines[fn] {
				if tl.concurrent {
					continue
				}
				for _, it := range tl.items {
					if it.kind != itemCall || it.fn == nil {
						continue
					}
					for cls := range m.acquires[it.fn] {
						if !m.acquires[fn][cls] {
							m.acquires[fn][cls] = true
							changed = true
						}
					}
				}
			}
		}
	}
	return m
}

// lockSite is one acquisition, call or guarded access as the held-set walk
// reaches it: held lists the classes held just before it, in acquisition
// order (a class locked twice appears twice), and is only valid during the
// visit.
type lockSite struct {
	fn        *types.Func
	pkg       *Package
	item      *lockItem
	held      []lockClass
	goroutine bool // inside a go-statement closure
}

// walk runs every timeline through the held-set simulation in source order,
// calling visit at each acquisition, call and guarded access. A deferred
// unlock keeps its lock held for the rest of the walk, matching its real
// extent; lock-state changes inside a block that ends in return do not
// outlive the block, since the code after it only runs when it did not.
func (m *lockModel) walk(visit func(lockSite)) {
	for _, fn := range m.idx.order {
		tls, pkg := m.timelines[fn], m.idx.funcs[fn].pkg
		var run func(i int, held []lockClass)
		run = func(i int, held []lockClass) {
			type scope struct {
				end  token.Pos
				held []lockClass
			}
			var scopes []scope
			for j := range tls[i].items {
				it := &tls[i].items[j]
				for n := len(scopes); n > 0 && it.pos > scopes[n-1].end; n-- {
					held = scopes[n-1].held
					scopes = scopes[:n-1]
				}
				switch it.kind {
				case itemScope:
					scopes = append(scopes, scope{end: it.end, held: slices.Clone(held)})
				case itemClosure:
					var start []lockClass
					if !tls[it.child].concurrent {
						start = slices.Clone(held)
					}
					run(it.child, start)
				case itemRelease:
					if k := slices.Index(held, it.class); k >= 0 && !it.deferred {
						held = slices.Delete(held, k, k+1)
					}
				default:
					visit(lockSite{fn: fn, pkg: pkg, item: it, held: held, goroutine: tls[i].concurrent})
					if it.kind == itemAcquire {
						held = append(held, it.class)
					}
				}
			}
		}
		run(0, nil)
	}
}

// lockEdge is one observed "to acquired while from is held" ordering.
type lockEdge struct {
	from, to lockClass
	pos      token.Pos
	pkg      *Package
	how      string // "" for a direct Lock, else the call chain charging it
}

// runLockOrder reads all three findings off one held-set walk: dynamic calls
// and self-deadlocks as they are reached, and the ordering edges whose
// cycles it reports at the end.
func runLockOrder(mp *ModulePass) {
	m := buildLockModel(mp.Pkgs, nil)
	var edges []lockEdge
	m.walk(func(s lockSite) {
		it := s.item
		switch {
		case len(s.held) == 0: // nothing held: no ordering, no finding
		case it.kind == itemAcquire:
			for k, h := range s.held {
				if h != it.class && !slices.Contains(s.held[:k], h) {
					edges = append(edges, lockEdge{from: h, to: it.class, pos: it.pos, pkg: s.pkg})
				}
			}
		case it.kind == itemCall && it.fn == nil:
			mp.Reportf(s.pkg.Fset, it.pos,
				"dynamic call %s while holding %s; the analysis cannot rule out blocking or lock re-entry in the callee",
				it.desc, describeHeld(s.held))
		case it.kind == itemCall:
			for cls := range m.acquires[it.fn] {
				for k, h := range s.held {
					switch {
					case slices.Contains(s.held[:k], h):
					case h == cls:
						mp.Reportf(s.pkg.Fset, it.pos,
							"call to %s acquires %s, which is already held here: self-deadlock",
							it.fn.Name(), cls)
					default:
						edges = append(edges, lockEdge{
							from: h, to: cls, pos: it.pos, pkg: s.pkg,
							how: fmt.Sprintf("via call to %s", it.fn.Name()),
						})
					}
				}
			}
		}
	})
	reportLockCycles(mp, edges)
}

func describeHeld(held []lockClass) string {
	var names []string
	for k, c := range held {
		if !slices.Contains(held[:k], c) {
			names = append(names, c.String())
		}
	}
	return strings.Join(names, ", ")
}

// reportLockCycles finds edges that participate in a cycle of the class
// graph and reports each witnessing site once.
func reportLockCycles(mp *ModulePass, edges []lockEdge) {
	adj := make(map[lockClass]map[lockClass]bool)
	for _, e := range edges {
		if adj[e.from] == nil {
			adj[e.from] = make(map[lockClass]bool)
		}
		adj[e.from][e.to] = true
	}
	// Cheap reachability suffices at module scale: edge u→v is in a cycle
	// iff u is reachable from v.
	reaches := func(from, to lockClass) bool {
		seen := map[lockClass]bool{from: true}
		stack := []lockClass{from}
		for len(stack) > 0 {
			n := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if n == to {
				return true
			}
			for next := range adj[n] {
				if !seen[next] {
					seen[next] = true
					stack = append(stack, next)
				}
			}
		}
		return false
	}
	seenSite := make(map[string]bool)
	for _, e := range edges {
		if !reaches(e.to, e.from) {
			continue
		}
		how := e.how
		if how != "" {
			how = " " + how
		}
		key := fmt.Sprintf("%d:%s:%s", e.pos, e.from, e.to)
		if seenSite[key] {
			continue
		}
		seenSite[key] = true
		mp.Reportf(e.pkg.Fset, e.pos,
			"lock order cycle: %s acquired%s while %s is held, but the reverse order also occurs in the module",
			e.to, how, e.from)
	}
}

// collectLockFacts extracts the timelines of decl: its own body first, then
// one per function literal, each reached from its parent through a closure
// item. Selections of a field in guards become access items, except a Load
// on a sync/atomic-typed field, which is safe without the lock.
func collectLockFacts(pkg *Package, decl *ast.FuncDecl, guards map[types.Object]lockClass) []lockTimeline {
	var tls []lockTimeline
	var walk func(root ast.Node, i int)
	add := func(i int, it lockItem) { tls[i].items = append(tls[i].items, it) }
	closure := func(i int, lit *ast.FuncLit, goStmt bool) {
		child := len(tls)
		tls = append(tls, lockTimeline{concurrent: goStmt || tls[i].concurrent})
		walk(lit.Body, child)
		add(i, lockItem{pos: lit.Pos(), kind: itemClosure, child: child})
	}
	// deferOrGo records a defer or go statement. A literal becomes a closure
	// timeline; any other deferred call is recorded here, while a spawned one
	// runs concurrently and is not charged to this frame. The callee and
	// arguments are evaluated in this frame either way.
	deferOrGo := func(i int, call *ast.CallExpr, goStmt bool) {
		if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
			closure(i, lit, goStmt)
		} else {
			if !goStmt {
				visitLockCall(pkg, call, true, &tls[i])
			}
			walk(call.Fun, i)
		}
		for _, a := range call.Args {
			walk(a, i)
		}
	}
	atomicLoads := make(map[ast.Expr]bool)
	walk = func(root ast.Node, i int) {
		ast.Inspect(root, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				deferOrGo(i, n.Call, true)
				return false
			case *ast.DeferStmt:
				deferOrGo(i, n.Call, false)
				return false
			case *ast.FuncLit:
				closure(i, n, false)
				return false
			case *ast.CallExpr:
				if _, ok := ast.Unparen(n.Fun).(*ast.FuncLit); !ok {
					visitLockCall(pkg, n, false, &tls[i])
				}
			case *ast.SelectorExpr:
				sel, ok := pkg.Info.Selections[n]
				if !ok || len(guards) == 0 {
					break
				}
				if fn, ok := sel.Obj().(*types.Func); ok && fn.Name() == "Load" && fn.Pkg() != nil && fn.Pkg().Path() == "sync/atomic" {
					atomicLoads[ast.Unparen(n.X)] = true
				}
				if cls, ok := guards[sel.Obj()]; ok && !atomicLoads[n] {
					add(i, lockItem{pos: n.Pos(), kind: itemAccess, class: cls, desc: sel.Obj().Name()})
				}
			case *ast.BlockStmt:
				if k := len(n.List); k > 0 {
					if _, ok := n.List[k-1].(*ast.ReturnStmt); ok {
						add(i, lockItem{pos: n.Lbrace, kind: itemScope, end: n.Rbrace})
					}
				}
			}
			return true
		})
	}
	tls = append(tls, lockTimeline{})
	walk(decl.Body, 0)
	// Nested walks append out of order; the simulation needs source order.
	for i := range tls {
		sort.SliceStable(tls[i].items, func(a, b int) bool { return tls[i].items[a].pos < tls[i].items[b].pos })
	}
	return tls
}

// visitLockCall classifies one call as a mutex operation, a static call, or
// a dynamic call, and records it on the timeline.
func visitLockCall(pkg *Package, call *ast.CallExpr, deferred bool, tl *lockTimeline) {
	kind, fn, _ := classifyCall(pkg.Info, call)
	switch kind {
	case callBuiltin, callConversion:
		return
	case callStatic:
		if cls, acquire, ok := mutexOp(pkg, call, fn); ok {
			k := itemRelease
			if acquire {
				k = itemAcquire
			}
			tl.items = append(tl.items, lockItem{pos: call.Pos(), kind: k, class: cls, deferred: deferred})
			return
		}
		// Static calls are recorded unconditionally; the simulation only
		// consults the callee's acquire summary, which is empty for
		// functions outside the analyzed set (stdlib and friends).
		tl.items = append(tl.items, lockItem{pos: call.Pos(), kind: itemCall, fn: fn, desc: fn.Name()})
	default:
		tl.items = append(tl.items, lockItem{pos: call.Pos(), kind: itemCall, desc: callDesc(call)})
	}
}

// mutexOp reports whether call is a Lock-family method on a sync mutex, and
// resolves the lock class. Mutexes the resolver cannot attribute (locals,
// arbitrary expressions) are ignored: a mutex that never escapes a stack
// frame cannot participate in a cross-goroutine cycle.
func mutexOp(pkg *Package, call *ast.CallExpr, fn *types.Func) (lockClass, bool, bool) {
	if fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return lockClass{}, false, false
	}
	var acquire bool
	switch fn.Name() {
	case "Lock", "RLock", "TryLock", "TryRLock":
		acquire = true
	case "Unlock", "RUnlock":
		acquire = false
	default:
		return lockClass{}, false, false
	}
	recv := recvTypeName(fn)
	if recv != "Mutex" && recv != "RWMutex" {
		return lockClass{}, false, false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return lockClass{}, false, false
	}
	cls, ok := resolveLockClass(pkg, sel.X)
	return cls, acquire, ok
}

// resolveLockClass maps a mutex-valued expression to its class.
func resolveLockClass(pkg *Package, e ast.Expr) (lockClass, bool) {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.IndexExpr:
			e = x.X // s.linkMu[i] → the linkMu field is the class
			continue
		case *ast.StarExpr:
			e = x.X
			continue
		case *ast.SelectorExpr:
			if sel, ok := pkg.Info.Selections[x]; ok && sel.Kind() == types.FieldVal {
				owner := derefType(sel.Recv())
				if named, ok := owner.(*types.Named); ok {
					return lockClass{owner: named.Obj().Name(), field: sel.Obj().Name()}, true
				}
				return lockClass{}, false
			}
			// Package-qualified variable: pkg.mu.Lock().
			if v, ok := pkg.Info.Uses[x.Sel].(*types.Var); ok && v.Pkg() != nil {
				return lockClass{owner: v.Pkg().Name(), field: v.Name()}, true
			}
			return lockClass{}, false
		case *ast.Ident:
			v, ok := pkg.Info.Uses[x].(*types.Var)
			if !ok {
				return lockClass{}, false
			}
			if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
				return lockClass{owner: v.Pkg().Name(), field: v.Name()}, true
			}
			// Local or parameter mutex: untracked.
			return lockClass{}, false
		default:
			return lockClass{}, false
		}
	}
}

// callDesc renders a short display form of a dynamic call target.
func callDesc(call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		if id, ok := ast.Unparen(fun.X).(*ast.Ident); ok {
			return id.Name + "." + fun.Sel.Name
		}
		if inner, ok := ast.Unparen(fun.X).(*ast.SelectorExpr); ok {
			return inner.Sel.Name + "." + fun.Sel.Name
		}
		return fun.Sel.Name
	case *ast.Ident:
		return fun.Name
	}
	return "function value"
}
