package lint

import (
	"go/ast"
)

// This file is the framework's intra-procedural flow layer: a lightweight
// control-flow graph over go/ast plus the reachability queries the
// flow-sensitive analyzers (goroleak, locksafe) share. It models
// statement-level control flow only — short-circuit evaluation inside
// expressions is invisible, which is exactly the granularity the fact
// lattices of this package need. Function literals are boundaries: a
// FuncLit nested in a body gets its own graph, its statements never leak
// into the enclosing function's blocks.

// cfgBlock is one basic block: statements that execute in order, followed
// by edges to every possible successor.
type cfgBlock struct {
	stmts []ast.Stmt
	succs []*cfgBlock
}

// funcCFG is the graph of one function body. exit is the single synthetic
// sink every return (and the fallthrough off the end of the body) reaches;
// defers collects the function's DeferStmts in source order, since their
// calls run at every exit regardless of which block deferred them.
type funcCFG struct {
	entry  *cfgBlock
	exit   *cfgBlock
	blocks []*cfgBlock
	defers []*ast.DeferStmt
}

// cfgBuilder carries the loop/label context while translating a body.
type cfgBuilder struct {
	g *funcCFG
	// breakTo / continueTo are stacks of the innermost targets; labeled
	// entries carry the label name, unlabeled ones the empty string.
	breaks    []branchTarget
	continues []branchTarget
}

type branchTarget struct {
	label string
	block *cfgBlock
}

func (b *cfgBuilder) newBlock() *cfgBlock {
	blk := &cfgBlock{}
	b.g.blocks = append(b.g.blocks, blk)
	return blk
}

func link(from, to *cfgBlock) {
	if from == nil || to == nil {
		return
	}
	from.succs = append(from.succs, to)
}

// buildCFG translates a function body into a funcCFG. The translation is
// deliberately conservative where Go is rare in this codebase: a goto is
// treated as falling through (no goto exists in the module; the dogfood
// test keeps that true), and a labeled statement simply contributes its
// inner statement with the label registered for break/continue.
func buildCFG(body *ast.BlockStmt) *funcCFG {
	g := &funcCFG{}
	b := &cfgBuilder{g: g}
	g.entry = b.newBlock()
	g.exit = &cfgBlock{}
	last := b.stmtList(g.entry, body.List, "")
	link(last, g.exit)
	g.blocks = append(g.blocks, g.exit)
	return g
}

// stmtList threads the statements through cur and returns the block
// control falls out of, or nil when the tail is unreachable (return,
// terminating branch).
func (b *cfgBuilder) stmtList(cur *cfgBlock, list []ast.Stmt, label string) *cfgBlock {
	for _, s := range list {
		if cur == nil {
			// Unreachable code after a return/branch: give it its own
			// island block so facts inside it are still inspected.
			cur = b.newBlock()
		}
		cur = b.stmt(cur, s, label)
		label = ""
	}
	return cur
}

// stmt adds one statement to cur and returns the fall-through block.
func (b *cfgBuilder) stmt(cur *cfgBlock, s ast.Stmt, label string) *cfgBlock {
	switch s := s.(type) {
	case *ast.BlockStmt:
		return b.stmtList(cur, s.List, "")

	case *ast.LabeledStmt:
		return b.stmt(cur, s.Stmt, s.Label.Name)

	case *ast.ReturnStmt:
		cur.stmts = append(cur.stmts, s)
		link(cur, b.g.exit)
		return nil

	case *ast.BranchStmt:
		cur.stmts = append(cur.stmts, s)
		switch s.Tok.String() {
		case "break":
			if t := b.target(b.breaks, s.Label); t != nil {
				link(cur, t)
				return nil
			}
		case "continue":
			if t := b.target(b.continues, s.Label); t != nil {
				link(cur, t)
				return nil
			}
		case "fallthrough":
			// Handled by the switch translation (the next clause is
			// already a successor); treat as ending the block.
			return nil
		}
		// goto, or a break/continue whose label we could not resolve:
		// conservatively fall through.
		return cur

	case *ast.DeferStmt:
		b.g.defers = append(b.g.defers, s)
		cur.stmts = append(cur.stmts, s)
		return cur

	case *ast.IfStmt:
		if s.Init != nil {
			cur.stmts = append(cur.stmts, s.Init)
		}
		cur.stmts = append(cur.stmts, &ast.ExprStmt{X: s.Cond})
		after := b.newBlock()
		then := b.newBlock()
		link(cur, then)
		if end := b.stmtList(then, s.Body.List, ""); end != nil {
			link(end, after)
		}
		if s.Else != nil {
			els := b.newBlock()
			link(cur, els)
			if end := b.stmt(els, s.Else, ""); end != nil {
				link(end, after)
			}
		} else {
			link(cur, after)
		}
		return after

	case *ast.ForStmt:
		if s.Init != nil {
			cur.stmts = append(cur.stmts, s.Init)
		}
		head := b.newBlock()
		link(cur, head)
		if s.Cond != nil {
			head.stmts = append(head.stmts, &ast.ExprStmt{X: s.Cond})
		}
		after := b.newBlock()
		post := b.newBlock()
		if s.Post != nil {
			post.stmts = append(post.stmts, s.Post)
		}
		link(post, head)
		if s.Cond != nil {
			link(head, after) // condition false
		}
		body := b.newBlock()
		link(head, body)
		b.push(label, after, post)
		if end := b.stmtList(body, s.Body.List, ""); end != nil {
			link(end, post)
		}
		b.pop()
		return after

	case *ast.RangeStmt:
		cur.stmts = append(cur.stmts, &ast.ExprStmt{X: s.X})
		head := b.newBlock()
		link(cur, head)
		if s.Key != nil || s.Value != nil {
			// Model the per-iteration binding as a synthetic assignment so
			// fact transfers see the defs without the loop body riding along.
			lhs := []ast.Expr{}
			if s.Key != nil {
				lhs = append(lhs, s.Key)
			}
			if s.Value != nil {
				lhs = append(lhs, s.Value)
			}
			head.stmts = append(head.stmts, &ast.AssignStmt{Lhs: lhs, Tok: s.Tok, Rhs: []ast.Expr{s.X}})
		}
		after := b.newBlock()
		link(head, after) // range exhausted
		body := b.newBlock()
		link(head, body)
		b.push(label, after, head)
		if end := b.stmtList(body, s.Body.List, ""); end != nil {
			link(end, head)
		}
		b.pop()
		return after

	case *ast.SwitchStmt, *ast.TypeSwitchStmt:
		var init ast.Stmt
		var bodyList []ast.Stmt
		switch sw := s.(type) {
		case *ast.SwitchStmt:
			init = sw.Init
			if sw.Tag != nil {
				cur.stmts = append(cur.stmts, &ast.ExprStmt{X: sw.Tag})
			}
			bodyList = sw.Body.List
		case *ast.TypeSwitchStmt:
			init = sw.Init
			cur.stmts = append(cur.stmts, sw.Assign)
			bodyList = sw.Body.List
		}
		if init != nil {
			cur.stmts = append(cur.stmts, init)
		}
		after := b.newBlock()
		b.push(label, after, nil)
		hasDefault := false
		var clauseBlocks []*cfgBlock
		var clauses []*ast.CaseClause
		for _, cs := range bodyList {
			cc, ok := cs.(*ast.CaseClause)
			if !ok {
				continue
			}
			if cc.List == nil {
				hasDefault = true
			}
			blk := b.newBlock()
			link(cur, blk)
			clauseBlocks = append(clauseBlocks, blk)
			clauses = append(clauses, cc)
		}
		for i, cc := range clauses {
			end := b.stmtList(clauseBlocks[i], cc.Body, "")
			if end != nil {
				if endsInFallthrough(cc.Body) && i+1 < len(clauseBlocks) {
					link(end, clauseBlocks[i+1])
				} else {
					link(end, after)
				}
			}
		}
		if !hasDefault {
			link(cur, after) // no case matched
		}
		b.pop()
		return after

	case *ast.SelectStmt:
		cur.stmts = append(cur.stmts, s) // the blocking point itself
		after := b.newBlock()
		b.push(label, after, nil)
		for _, cs := range s.Body.List {
			cc, ok := cs.(*ast.CommClause)
			if !ok {
				continue
			}
			blk := b.newBlock()
			if cc.Comm != nil {
				blk.stmts = append(blk.stmts, cc.Comm)
			}
			link(cur, blk)
			if end := b.stmtList(blk, cc.Body, ""); end != nil {
				link(end, after)
			}
		}
		b.pop()
		return after

	case *ast.GoStmt:
		cur.stmts = append(cur.stmts, s)
		return cur

	case *ast.ExprStmt:
		cur.stmts = append(cur.stmts, s)
		if isPanicOrFatal(s.X) {
			link(cur, b.g.exit)
			return nil
		}
		return cur

	default:
		cur.stmts = append(cur.stmts, s)
		return cur
	}
}

func (b *cfgBuilder) push(label string, brk, cont *cfgBlock) {
	b.breaks = append(b.breaks, branchTarget{"", brk}, branchTarget{label, brk})
	if cont != nil {
		b.continues = append(b.continues, branchTarget{"", cont}, branchTarget{label, cont})
	} else {
		// switch/select: continue still refers to the enclosing loop, so
		// push nothing.
		b.continues = append(b.continues, branchTarget{label: "\x00sentinel"})
	}
}

func (b *cfgBuilder) pop() {
	b.breaks = b.breaks[:len(b.breaks)-2]
	if n := len(b.continues); n > 0 && b.continues[n-1].label == "\x00sentinel" {
		b.continues = b.continues[:n-1]
	} else {
		b.continues = b.continues[:n-2]
	}
}

// target resolves a break/continue to its block: the innermost unlabeled
// target, or the innermost entry registered under the label.
func (b *cfgBuilder) target(stack []branchTarget, label *ast.Ident) *cfgBlock {
	want := ""
	if label != nil {
		want = label.Name
	}
	for i := len(stack) - 1; i >= 0; i-- {
		if stack[i].block == nil {
			continue
		}
		if stack[i].label == want && (want != "" || stack[i].label == "") {
			return stack[i].block
		}
		if want == "" && stack[i].label == "" {
			return stack[i].block
		}
	}
	return nil
}

func endsInFallthrough(body []ast.Stmt) bool {
	if len(body) == 0 {
		return false
	}
	br, ok := body[len(body)-1].(*ast.BranchStmt)
	return ok && br.Tok.String() == "fallthrough"
}

// isPanicOrFatal reports whether the expression is a call that never
// returns control to the following statement: the panic builtin.
func isPanicOrFatal(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	return ok && id.Name == "panic"
}

// --- reachability queries -------------------------------------------------

// exitReachableAvoiding reports whether g.exit can be reached from the
// entry without executing a statement for which barrier returns true. A
// DeferStmt counts where it is executed, not at the exit: goroleak checks
// the deferred signals itself before asking for a path. This is the query
// behind "is there an exit path without a completion signal" (goroleak).
func (g *funcCFG) exitReachableAvoiding(barrier func(ast.Stmt) bool) bool {
	seen := make(map[*cfgBlock]bool)
	var walk func(b *cfgBlock, start int) bool
	walk = func(b *cfgBlock, start int) bool {
		if b == g.exit {
			return true
		}
		for i := start; i < len(b.stmts); i++ {
			if barrier(b.stmts[i]) {
				return false
			}
		}
		for _, s := range b.succs {
			if seen[s] {
				continue
			}
			seen[s] = true
			if walk(s, 0) {
				return true
			}
		}
		return false
	}
	return walk(g.entry, 0)
}

// shallowInspect walks the expressions of one CFG statement without
// descending into nested function literals (their statements belong to
// their own graphs) or into a SelectStmt's clause bodies (those live in
// the clause blocks; the SelectStmt node in a block stands only for the
// blocking point itself).
func shallowInspect(s ast.Stmt, f func(n ast.Node) bool) {
	if _, ok := s.(*ast.SelectStmt); ok {
		return
	}
	ast.Inspect(s, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if !f(n) {
			return false
		}
		return true
	})
}

// forEachFunc invokes f once per function body in the file: every FuncDecl
// with a body and every FuncLit. fn is the enclosing FuncDecl (nil for
// literals outside any declaration — impossible in practice but kept nil-
// safe), lit the literal itself (nil for declarations).
func forEachFunc(file *ast.File, f func(decl *ast.FuncDecl, lit *ast.FuncLit, body *ast.BlockStmt)) {
	ast.Inspect(file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			if n.Body != nil {
				f(n, nil, n.Body)
			}
		case *ast.FuncLit:
			f(nil, n, n.Body)
		}
		return true
	})
}
