package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// goroleakPackages scopes the analyzer to the concurrency-heavy internals:
// the parallel fixpoints, the serving tier, the hedging distributed client
// and the prune search are exactly where a leaked goroutine poisons -race
// runs and survives Shutdown.
var goroleakPackages = []string{
	"internal/explicit",
	"internal/symbolic",
	"internal/service",
	"internal/dist",
	"internal/prune",
}

// GoroLeak checks that every spawned goroutine has a bounded join path.
// The goroutine's body (a func literal, a same-package function or method,
// or a closure assigned to a local) must signal completion — a WaitGroup
// Done, a close, or a channel send — on every exit path, either via defer
// or on each path through its control-flow graph; and at least one of the
// signalled objects must be joined (Wait, receive, or range) somewhere in
// the package. A goroutine whose body cannot terminate at all is reported
// unless it is, in fact, joinable by those rules.
var GoroLeak = &Analyzer{
	Name:       "goroleak",
	Doc:        "goroutines must signal completion on every exit path and the signal must be joined in-package",
	NeedsTypes: true,
	Run:        runGoroLeak,
}

func runGoroLeak(p *Pass) {
	if !pathInScope(p.RelPath(), goroleakPackages) {
		return
	}
	g := &goroleakPass{Pass: p}
	g.buildJoinIndex()
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if gs, ok := n.(*ast.GoStmt); ok {
				g.checkGo(gs)
			}
			return true
		})
	}
}

type goroleakPass struct {
	*Pass
	// joined holds every object (channel variable or field, WaitGroup
	// variable or field) the package waits on somewhere.
	joined map[types.Object]bool
}

func isWaitGroup(t types.Type) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	return isNamedType(t, "sync", "WaitGroup")
}

func isChan(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Chan)
	return ok
}

// joinableObj resolves a waited-on operand to a stable object for matching
// a goroutine's signal against the package's joins: the field object for a
// selector, the variable for an identifier.
func (p *Pass) joinableObj(e ast.Expr) types.Object {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return p.objectOf(e)
	case *ast.SelectorExpr:
		if sel, ok := p.Info.Selections[e]; ok && sel.Kind() == types.FieldVal {
			return sel.Obj()
		}
		return p.objectOf(e.Sel)
	}
	return nil
}

// buildJoinIndex records every object the package joins on: WaitGroup
// Waits, channel receives, and channel ranges.
func (g *goroleakPass) buildJoinIndex() {
	g.joined = make(map[types.Object]bool)
	mark := func(e ast.Expr) {
		if obj := g.joinableObj(e); obj != nil {
			g.joined[obj] = true
		}
	}
	for _, f := range g.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok &&
					sel.Sel.Name == "Wait" && isWaitGroup(g.typeOf(sel.X)) {
					mark(sel.X)
				}
			case *ast.UnaryExpr:
				if n.Op == token.ARROW {
					mark(n.X)
				}
			case *ast.RangeStmt:
				if isChan(g.typeOf(n.X)) {
					mark(n.X)
				}
			}
			return true
		})
	}
}

func (g *goroleakPass) checkGo(gs *ast.GoStmt) {
	body := g.resolveBody(gs.Call)
	if body == nil {
		g.Reportf(gs.Pos(), "cannot resolve the goroutine's body for join analysis: spawn a func literal or a same-package function")
		return
	}
	cfg := buildCFG(body)
	noBarrier := func(ast.Stmt) bool { return false }
	if !cfg.exitReachableAvoiding(noBarrier) {
		// The body has no exit at all, so no completion signal — deferred
		// or otherwise — can ever run.
		g.Reportf(gs.Pos(), "goroutine body never terminates: no exit path exists, so it cannot be joined")
		return
	}
	deferredSignal := false
	var signals []types.Object
	var unresolved bool
	note := func(obj types.Object) {
		if obj == nil {
			unresolved = true
			return
		}
		signals = append(signals, obj)
	}
	for _, d := range cfg.defers {
		if g.signalsIn(d, note) {
			deferredSignal = true
		}
	}
	pathSignal := func(s ast.Stmt) bool { return g.signalsIn(s, note) }
	if !deferredSignal && cfg.exitReachableAvoiding(pathSignal) {
		g.Reportf(gs.Pos(), "goroutine has an exit path without a completion signal (WaitGroup Done, close, or channel send): it cannot be joined deterministically")
		return
	}
	if !deferredSignal {
		// The reachability query above short-circuits; rescan the whole
		// body so every signalled object is considered for the join check.
		ast.Inspect(body, func(n ast.Node) bool {
			if s, ok := n.(ast.Stmt); ok {
				g.signalsIn(s, note)
			}
			return true
		})
	}
	joined := false
	for _, obj := range signals {
		if g.joined[obj] {
			joined = true
		}
	}
	if !joined && !unresolved {
		g.Reportf(gs.Pos(), "goroutine's completion signal is never joined: no Wait, receive, or range on the signalled object anywhere in this package")
	}
}

// signalsIn reports whether executing s signals completion — a WaitGroup
// Done, a close, or a channel send — and passes each signalled object to
// note. Deferred statements are inspected in full (a deferred closure runs
// at every exit); other statements are inspected shallowly, since nested
// literals are separate goroutine-less functions and select clause bodies
// live in their own blocks.
func (g *goroleakPass) signalsIn(s ast.Stmt, note func(types.Object)) bool {
	found := false
	visit := func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SendStmt:
			found = true
			note(g.joinableObj(n.Chan))
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && id.Name == "close" && len(n.Args) == 1 {
				if _, isBuiltin := g.Info.Uses[id].(*types.Builtin); isBuiltin {
					found = true
					note(g.joinableObj(n.Args[0]))
				}
			}
			if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok &&
				sel.Sel.Name == "Done" && isWaitGroup(g.typeOf(sel.X)) {
				found = true
				note(g.joinableObj(sel.X))
			}
		}
		return true
	}
	if _, ok := s.(*ast.DeferStmt); ok {
		ast.Inspect(s, visit)
	} else {
		shallowInspect(s, visit)
	}
	return found
}

// resolveBody locates the spawned call's function body: a literal spawned
// in place, a function or method declared in this package, or a closure
// assigned to a variable in this package's files.
func (g *goroleakPass) resolveBody(call *ast.CallExpr) *ast.BlockStmt {
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		return lit.Body
	}
	switch obj := g.calleeObject(call).(type) {
	case *types.Func:
		for _, f := range g.Files {
			for _, decl := range f.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && g.Info.Defs[fd.Name] == obj && fd.Body != nil {
					return fd.Body
				}
			}
		}
	case *types.Var:
		var body *ast.BlockStmt
		for _, f := range g.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				as, ok := n.(*ast.AssignStmt)
				if !ok || len(as.Lhs) != len(as.Rhs) {
					return true
				}
				for i, lhs := range as.Lhs {
					id, ok := lhs.(*ast.Ident)
					if !ok || g.objectOf(id) != obj {
						continue
					}
					if lit, ok := ast.Unparen(as.Rhs[i]).(*ast.FuncLit); ok {
						body = lit.Body
					}
				}
				return true
			})
		}
		return body
	}
	return nil
}
