package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// BDDRef enforces the BDD substrate's Keep/Release protection discipline
// (the GC contract introduced with the mark-and-sweep collector): a
// bdd.Ref that outlives the expression that built it — stored into a
// struct field, a slice or map reachable from one, or a package variable —
// must be protected at the store site. The analyzer is flow-sensitive: it
// propagates a "kept" fact through each function's control-flow graph, so
// a ref assigned from Keep on every path into a store is accepted, while a
// store that is reachable with the ref raw on any path is reported. A Keep
// whose result can reach a return without being released, returned, stored,
// or passed on any path is a permanent GC root and is reported too.
//
// Two ownership rules exempt scratch contexts, which never run a
// collection: a ref produced by a method on the store target itself when
// the target's type is an unexported struct of the package under analysis
// (the scratch-context rule), and a ref produced by a bdd.Manager that was
// created locally with bdd.New and stored into the target (a private
// manager owned by the value it fills). Persistent, collecting managers
// never satisfy either rule, so stores on the engine's hot paths still
// require Keep.
var BDDRef = &Analyzer{
	Name:       "bddref",
	Doc:        "bdd.Ref stores must be protected with Keep on every path to the store site; Keep results must be consumed on every path",
	NeedsTypes: true,
	Run:        runBDDRef,
}

func runBDDRef(p *Pass) {
	bddPath := p.ModPath + "/internal/bdd"
	if p.PkgPath == bddPath {
		// The manager's own internals legitimately juggle raw refs; its
		// discipline is validated by the GC property tests.
		return
	}
	b := &bddrefPass{Pass: p, bddPath: bddPath}
	for _, f := range p.Files {
		forEachFunc(f, func(decl *ast.FuncDecl, lit *ast.FuncLit, body *ast.BlockStmt) {
			b.checkFunc(body)
		})
	}
}

type bddrefPass struct {
	*Pass
	bddPath string
}

func (b *bddrefPass) isRef(t types.Type) bool {
	return isNamedType(t, b.bddPath, "Ref")
}

// isKeepCall reports whether call is a protection call: bdd.Manager.Keep
// (any method named Keep returning a bdd.Ref) or a module Retain (the
// core.RefRegistry capability).
func (b *bddrefPass) isKeepCall(call *ast.CallExpr) bool {
	name := calleeName(call)
	switch name {
	case "Keep":
		return b.isRef(b.typeOf(call))
	case "Retain":
		obj := b.calleeObject(call)
		return obj != nil && obj.Pkg() != nil &&
			(obj.Pkg().Path() == b.ModPath || len(obj.Pkg().Path()) > len(b.ModPath) && obj.Pkg().Path()[:len(b.ModPath)+1] == b.ModPath+"/")
	}
	return false
}

func calleeName(call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return ""
}

// --- the kept-fact lattice ------------------------------------------------

// refFacts is the set of local bdd.Ref variables known to hold a protected
// (kept) value at a program point. Absence means raw: the conservative
// default for parameters, captured variables and anything assigned from a
// plain operation. The lattice has height two, so the fixpoint below is
// cheap.
type refFacts map[*types.Var]bool

func cloneFacts(m refFacts) refFacts {
	out := make(refFacts, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// classifyKept reports whether expr yields a protected ref under facts m:
// a constant (terminals are always live), a Keep/Retain call, or a local
// already carrying the kept fact.
func (b *bddrefPass) classifyKept(expr ast.Expr, m refFacts) bool {
	expr = ast.Unparen(expr)
	if tv, ok := b.Info.Types[expr]; ok && tv.Value != nil {
		return true
	}
	if call, ok := expr.(*ast.CallExpr); ok && b.isKeepCall(call) {
		return true
	}
	if id, ok := expr.(*ast.Ident); ok {
		if obj, ok := b.objectOf(id).(*types.Var); ok && m[obj] {
			return true
		}
	}
	return false
}

func (b *bddrefPass) isLocalVar(obj types.Object) (*types.Var, bool) {
	v, ok := obj.(*types.Var)
	if !ok || v.Pkg() == nil || v.Parent() == v.Pkg().Scope() {
		return nil, false
	}
	return v, true
}

// transfer applies one statement's effect on the kept set.
func (b *bddrefPass) transfer(s ast.Stmt, m refFacts) {
	switch s := s.(type) {
	case *ast.AssignStmt:
		if len(s.Lhs) == len(s.Rhs) {
			for i, lhs := range s.Lhs {
				id, ok := ast.Unparen(lhs).(*ast.Ident)
				if !ok {
					continue
				}
				obj, ok := b.isLocalVar(b.objectOf(id))
				if !ok || !b.isRef(obj.Type()) {
					continue
				}
				if b.classifyKept(s.Rhs[i], m) {
					m[obj] = true
				} else {
					delete(m, obj)
				}
			}
			return
		}
		// Multi-value assignment (and the synthetic range binding): the
		// produced refs are raw.
		for _, lhs := range s.Lhs {
			id, ok := ast.Unparen(lhs).(*ast.Ident)
			if !ok {
				continue
			}
			if obj, ok := b.isLocalVar(b.objectOf(id)); ok && b.isRef(obj.Type()) {
				delete(m, obj)
			}
		}
	case *ast.DeclStmt:
		gd, ok := s.Decl.(*ast.GenDecl)
		if !ok {
			return
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			for i, name := range vs.Names {
				obj, ok := b.isLocalVar(b.Info.Defs[name])
				if !ok || !b.isRef(obj.Type()) {
					continue
				}
				switch {
				case len(vs.Values) == 0:
					m[obj] = true // zero value is bdd.False, a terminal
				case len(vs.Values) == len(vs.Names):
					if b.classifyKept(vs.Values[i], m) {
						m[obj] = true
					} else {
						delete(m, obj)
					}
				default:
					delete(m, obj)
				}
			}
		}
	}
}

// solve runs the forward fixpoint and returns each block's entry facts.
// Join is set intersection: a ref is kept at a join only if it is kept on
// every incoming path.
func (b *bddrefPass) solve(g *funcCFG) map[*cfgBlock]refFacts {
	in := make(map[*cfgBlock]refFacts, len(g.blocks))
	in[g.entry] = make(refFacts)
	maxRounds := 4*len(g.blocks) + 8
	for changed, round := true, 0; changed && round < maxRounds; round++ {
		changed = false
		for _, blk := range g.blocks {
			cur, ok := in[blk]
			if !ok {
				continue
			}
			out := cloneFacts(cur)
			for _, s := range blk.stmts {
				b.transfer(s, out)
			}
			for _, succ := range blk.succs {
				have, ok := in[succ]
				if !ok {
					in[succ] = cloneFacts(out)
					changed = true
					continue
				}
				for v := range have {
					if !out[v] {
						delete(have, v)
						changed = true
					}
				}
			}
		}
	}
	return in
}

// --- scratch-context ownership --------------------------------------------

// ownerInfo carries the function-level facts behind the two scratch-manager
// exemptions: which locals were created with bdd.New, and which locals hold
// a struct that one of those managers was stored into.
type ownerInfo struct {
	localNew map[*types.Var]bool
	owned    map[*types.Var]map[*types.Var]bool
}

func (b *bddrefPass) isManager(t types.Type) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	return isNamedType(t, b.bddPath, "Manager")
}

// isScratchType reports whether t is (a pointer to) an unexported struct
// type declared in the package under analysis — the shape of the scratch
// contexts whose managers never collect.
func (b *bddrefPass) isScratchType(t types.Type) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Exported() || obj.Pkg() == nil || obj.Pkg() != b.Pkg {
		return false
	}
	_, isStruct := named.Underlying().(*types.Struct)
	return isStruct
}

// ownership scans one function body for manager-ownership facts.
func (b *bddrefPass) ownership(body *ast.BlockStmt) *ownerInfo {
	own := &ownerInfo{
		localNew: make(map[*types.Var]bool),
		owned:    make(map[*types.Var]map[*types.Var]bool),
	}
	record := func(holder, mgr *types.Var) {
		if own.owned[holder] == nil {
			own.owned[holder] = make(map[*types.Var]bool)
		}
		own.owned[holder][mgr] = true
	}
	managersIn := func(lit *ast.CompositeLit, holder *types.Var) {
		for _, elt := range lit.Elts {
			val := elt
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				val = kv.Value
			}
			if id, ok := ast.Unparen(val).(*ast.Ident); ok {
				if mgr, ok := b.isLocalVar(b.objectOf(id)); ok && b.isManager(mgr.Type()) {
					record(holder, mgr)
				}
			}
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, lhs := range as.Lhs {
			rhs := ast.Unparen(as.Rhs[i])
			switch l := ast.Unparen(lhs).(type) {
			case *ast.Ident:
				obj, ok := b.isLocalVar(b.objectOf(l))
				if !ok {
					continue
				}
				if call, isCall := rhs.(*ast.CallExpr); isCall && b.calleeIs(call, b.bddPath, "New") {
					own.localNew[obj] = true
					continue
				}
				lit, isLit := rhs.(*ast.CompositeLit)
				if !isLit {
					if ue, isAddr := rhs.(*ast.UnaryExpr); isAddr && ue.Op == token.AND {
						lit, isLit = ue.X.(*ast.CompositeLit)
					}
				}
				if isLit {
					managersIn(lit, obj)
				}
			case *ast.SelectorExpr:
				base, ok := baseIdent(l)
				if !ok {
					continue
				}
				holder, ok := b.isLocalVar(b.objectOf(base))
				if !ok {
					continue
				}
				if id, isID := rhs.(*ast.Ident); isID {
					if mgr, ok := b.isLocalVar(b.objectOf(id)); ok && b.isManager(mgr.Type()) {
						record(holder, mgr)
					}
				}
			}
		}
		return true
	})
	return own
}

// baseIdent unwraps a selector/index/star chain to its root identifier.
func baseIdent(e ast.Expr) (*ast.Ident, bool) {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return x, true
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil, false
		}
	}
}

// scratchOwnedCall reports whether call produces a ref inside a scratch
// context that owns the manager: either a method on the store target itself
// (an unexported in-package struct — rule one), or a method on a manager
// that was created locally with bdd.New and stored into the target (rule
// two).
func (b *bddrefPass) scratchOwnedCall(call *ast.CallExpr, lhs ast.Expr, own *ownerInfo) bool {
	if lhs == nil {
		return false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	recvID, ok := ast.Unparen(sel.X).(*ast.Ident)
	if !ok {
		return false
	}
	recvObj, ok := b.isLocalVar(b.objectOf(recvID))
	if !ok {
		return false
	}
	base, ok := baseIdent(lhs)
	if !ok {
		return false
	}
	baseObj, ok := b.isLocalVar(b.objectOf(base))
	if !ok {
		return false
	}
	if recvObj == baseObj && b.isScratchType(recvObj.Type()) {
		return true
	}
	return own != nil && own.localNew[recvObj] && own.owned[baseObj] != nil && own.owned[baseObj][recvObj]
}

// --- per-function driver --------------------------------------------------

func (b *bddrefPass) checkFunc(body *ast.BlockStmt) {
	g := buildCFG(body)
	in := b.solve(g)
	own := b.ownership(body)
	for _, blk := range g.blocks {
		m := cloneFacts(in[blk])
		for _, s := range blk.stmts {
			b.checkStmt(s, m, body, own)
			b.transfer(s, m)
		}
	}
	b.checkKeepLeaks(g, body)
}

func (b *bddrefPass) checkStmt(s ast.Stmt, m refFacts, body *ast.BlockStmt, own *ownerInfo) {
	switch st := s.(type) {
	case *ast.ExprStmt:
		if call, ok := st.X.(*ast.CallExpr); ok && b.isKeepCall(call) {
			// A discarded Keep is allowed only as a transient pin: the same
			// receiver must Release the same expression later in the
			// function.
			if !b.hasMatchingRelease(body, call) {
				b.Reportf(st.Pos(), "result of %s is discarded; assign the kept Ref at the store site so the protected root stays visible", calleeName(call))
			}
		}
	case *ast.AssignStmt:
		b.checkAssign(st, m, own)
	}
	shallowInspect(s, func(n ast.Node) bool {
		if ue, ok := n.(*ast.UnaryExpr); ok && ue.Op == token.AND {
			if lit, ok := ue.X.(*ast.CompositeLit); ok {
				b.checkCompositeLit(lit, m)
			}
		}
		return true
	})
}

// allowedSource reports whether expr may be stored into the long-lived
// location lhs given the current kept facts.
func (b *bddrefPass) allowedSource(expr ast.Expr, m refFacts, lhs ast.Expr, own *ownerInfo) bool {
	expr = ast.Unparen(expr)
	if tv, ok := b.Info.Types[expr]; ok && tv.Value != nil {
		return true
	}
	if call, ok := expr.(*ast.CallExpr); ok {
		if b.isKeepCall(call) {
			return true
		}
		if b.scratchOwnedCall(call, lhs, own) {
			return true
		}
	}
	if id, ok := expr.(*ast.Ident); ok {
		if obj, ok := b.objectOf(id).(*types.Var); ok && m[obj] {
			return true
		}
	}
	return false
}

// storeTarget classifies lhs as a long-lived store destination: a struct
// field, a package variable, or an element of either. Stores into plain
// locals are not in scope — protection is checked where a ref becomes
// reachable beyond the current call.
func (b *bddrefPass) storeTarget(lhs ast.Expr) (string, bool) {
	switch e := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		if obj, ok := b.objectOf(e).(*types.Var); ok && obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope() {
			return "package variable " + e.Name, true
		}
	case *ast.SelectorExpr:
		if sel, ok := b.Info.Selections[e]; ok && sel.Kind() == types.FieldVal {
			return "field " + e.Sel.Name, true
		}
		if obj, ok := b.Info.Uses[e.Sel].(*types.Var); ok && obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope() {
			return "package variable " + e.Sel.Name, true
		}
	case *ast.IndexExpr:
		if desc, ok := b.storeTarget(e.X); ok {
			return "element of " + desc, true
		}
	case *ast.StarExpr:
		return b.storeTarget(e.X)
	}
	return "", false
}

func (b *bddrefPass) checkAssign(as *ast.AssignStmt, m refFacts, own *ownerInfo) {
	if len(as.Lhs) != len(as.Rhs) {
		return
	}
	for i, lhs := range as.Lhs {
		rhs := as.Rhs[i]
		if id, ok := lhs.(*ast.Ident); ok && id.Name == "_" {
			if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok && b.isKeepCall(call) {
				b.Reportf(as.Pos(), "result of %s assigned to the blank identifier; assign the kept Ref so the protected root stays visible", calleeName(call))
			}
			continue
		}
		if as.Tok == token.DEFINE {
			continue // new locals; the leak check covers kept refs
		}
		target, ok := b.storeTarget(lhs)
		if !ok {
			continue
		}
		rt := b.typeOf(rhs)
		switch {
		case b.isRef(rt):
			if !b.allowedSource(rhs, m, lhs, own) {
				b.Reportf(rhs.Pos(), "bdd.Ref stored into %s without Keep on every path: unprotected refs are reclaimed by the next collection", target)
			}
		default:
			if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok && isBuiltinAppend(b.Pass, call) {
				for _, arg := range call.Args[1:] {
					if b.isRef(b.typeOf(arg)) && !b.allowedSource(arg, m, lhs, own) {
						b.Reportf(arg.Pos(), "bdd.Ref appended to %s without Keep on every path: unprotected refs are reclaimed by the next collection", target)
					}
				}
			}
			if lit, ok := ast.Unparen(rhs).(*ast.CompositeLit); ok {
				b.checkCompositeLit(lit, m)
			}
		}
	}
}

func isBuiltinAppend(p *Pass, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "append" {
		return false
	}
	_, isBuiltin := p.Info.Uses[id].(*types.Builtin)
	return isBuiltin
}

// checkCompositeLit verifies Ref-typed fields of an escaping (address-
// taken or field-stored) struct literal are protected at the store site.
func (b *bddrefPass) checkCompositeLit(lit *ast.CompositeLit, m refFacts) {
	t := b.typeOf(lit)
	if t == nil {
		return
	}
	if _, ok := t.Underlying().(*types.Struct); !ok {
		return
	}
	for _, elt := range lit.Elts {
		val := elt
		if kv, ok := elt.(*ast.KeyValueExpr); ok {
			val = kv.Value
		}
		if b.isRef(b.typeOf(val)) && !b.allowedSource(val, m, nil, nil) {
			b.Reportf(val.Pos(), "bdd.Ref in escaping composite literal without Keep: unprotected refs are reclaimed by the next collection")
		}
	}
}

// hasMatchingRelease reports whether the function later releases the exact
// expression that call keeps, on the same receiver — the transient-pin
// idiom (pin across a collection point, release when done).
func (b *bddrefPass) hasMatchingRelease(body *ast.BlockStmt, keep *ast.CallExpr) bool {
	if len(keep.Args) == 0 {
		return false
	}
	recv := receiverString(keep)
	arg := types.ExprString(keep.Args[0])
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() <= keep.Pos() || calleeName(call) != "Release" || len(call.Args) == 0 {
			return true
		}
		if receiverString(call) == recv && types.ExprString(call.Args[0]) == arg {
			found = true
		}
		return true
	})
	return found
}

func receiverString(call *ast.CallExpr) string {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		return types.ExprString(sel.X)
	}
	return ""
}

// --- keep-leak detection --------------------------------------------------

// checkKeepLeaks flags locals assigned from Keep that can reach the
// function's exit without being consumed — released, returned, stored, sent
// or passed to any call — on at least one path. Such a root can never be
// released on that path and pins its whole BDD for the manager's lifetime.
func (b *bddrefPass) checkKeepLeaks(g *funcCFG, body *ast.BlockStmt) {
	for _, blk := range g.blocks {
		for i, s := range blk.stmts {
			as, ok := s.(*ast.AssignStmt)
			if !ok || len(as.Lhs) != len(as.Rhs) {
				continue
			}
			for j, lhs := range as.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok || id.Name == "_" {
					continue
				}
				call, ok := ast.Unparen(as.Rhs[j]).(*ast.CallExpr)
				if !ok || !b.isKeepCall(call) {
					continue
				}
				obj, ok := b.isLocalVar(b.objectOf(id))
				if !ok {
					continue // package vars are handled by the store check
				}
				if b.usedInFuncLit(body, obj) {
					// Captured by a closure: assume the closure consumes it.
					continue
				}
				barrier := func(st ast.Stmt) bool { return b.consumesVar(st, obj) }
				if g.exitReachableAvoiding(blk, i+1, barrier) {
					b.Reportf(id.Pos(), "kept Ref %s can reach a return without being released, returned, stored, or passed on: a leaked GC root pins its BDD forever", id.Name)
				}
			}
		}
	}
}

// consumesVar reports whether executing st consumes obj: passes it to a
// call, returns it, stores it into a literal or another location, or sends
// it. Reading it in a comparison or index is not consumption. Nested
// function literals are their own functions and are skipped — except under
// defer, whose closure runs at every exit.
func (b *bddrefPass) consumesVar(st ast.Stmt, obj *types.Var) bool {
	if _, ok := st.(*ast.SelectStmt); ok {
		return false // clause statements live in their own blocks
	}
	_, isDefer := st.(*ast.DeferStmt)
	found := false
	inspectWithStack(st, func(n ast.Node, stack []ast.Node) bool {
		if found {
			return false
		}
		if _, ok := n.(*ast.FuncLit); ok && !isDefer {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok || b.Info.Uses[id] != obj {
			return true
		}
		j := len(stack) - 1
		for j >= 0 {
			if _, ok := stack[j].(*ast.ParenExpr); ok {
				j--
				continue
			}
			break
		}
		if j < 0 {
			return true
		}
		switch parent := stack[j].(type) {
		case *ast.CallExpr:
			for _, arg := range parent.Args {
				if containsNode(arg, id) {
					found = true
				}
			}
		case *ast.ReturnStmt, *ast.CompositeLit, *ast.KeyValueExpr, *ast.SendStmt:
			found = true
		case *ast.AssignStmt:
			for _, rhs := range parent.Rhs {
				if containsNode(rhs, id) {
					found = true
				}
			}
		}
		return true
	})
	return found
}

// usedInFuncLit reports whether obj is referenced inside any function
// literal nested in body.
func (b *bddrefPass) usedInFuncLit(body *ast.BlockStmt, obj *types.Var) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		lit, ok := n.(*ast.FuncLit)
		if !ok {
			return true
		}
		ast.Inspect(lit.Body, func(inner ast.Node) bool {
			if id, ok := inner.(*ast.Ident); ok && b.Info.Uses[id] == obj {
				found = true
			}
			return !found
		})
		return !found
	})
	return found
}

func containsNode(root ast.Node, target ast.Node) bool {
	found := false
	ast.Inspect(root, func(n ast.Node) bool {
		if n == target {
			found = true
		}
		return !found
	})
	return found
}
