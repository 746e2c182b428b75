package lint

import (
	"go/ast"
	"strings"
)

// CtxFlow enforces context propagation through the library layers: the
// engine loops were made cancellable precisely so a service deadline can
// stop a synthesis mid-fixpoint, and one context.Background() in the
// middle of the call chain severs that path. Fresh root contexts are the
// binaries' privilege: only cmd/ packages, package main, and tests may
// call context.Background() or context.TODO().
var CtxFlow = &Analyzer{
	Name:       "ctxflow",
	Doc:        "library code must thread the caller's context.Context; no Background/TODO outside cmd/, main, and tests",
	NeedsTypes: true,
	Run:        runCtxFlow,
}

// ctxFieldAllowed lists the struct types (module-relative package path dot
// type name) documented to default a nil Ctx to context.Background():
// option structs whose zero value must stay usable. Everywhere else a
// context.Context struct field hides a call-scoped value in long-lived
// state.
var ctxFieldAllowed = map[string]bool{
	"internal/core.Options":    true, // nil Ctx documented to mean context.Background()
	"internal/explicit.Engine": true, // core.Engine.SetContext per run, nil = no cancellation
	"internal/symbolic.Engine": true, // core.Engine.SetContext per run, nil = no cancellation
}

func runCtxFlow(p *Pass) {
	if strings.HasPrefix(p.RelPath(), "cmd/") || p.Pkg.Name() == "main" {
		return
	}
	p.checkCtxFields()
	for _, f := range p.Files {
		inspectWithStack(f, func(n ast.Node, stack []ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			name := ""
			if p.calleeIs(call, "context", "Background") {
				name = "Background"
			} else if p.calleeIs(call, "context", "TODO") {
				name = "TODO"
			}
			if name == "" {
				return true
			}
			if enclosingReceivesContext(p, stack) {
				p.Reportf(call.Pos(), "function already receives a context.Context; thread it through instead of context.%s()", name)
			} else {
				p.Reportf(call.Pos(), "context.%s() in library code severs cancellation: accept a context.Context from the caller (only cmd/, main, and tests may create root contexts)", name)
			}
			return true
		})
	}
}

// checkCtxFields flags context.Context struct fields outside the
// documented nil-ctx-default option types: a context in a struct outlives
// the call it belongs to and silently detaches cancellation.
func (p *Pass) checkCtxFields() {
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok || ctxFieldAllowed[p.RelPath()+"."+ts.Name.Name] {
				return true
			}
			for _, field := range st.Fields.List {
				if !isNamedType(p.typeOf(field.Type), "context", "Context") {
					continue
				}
				name := "embedded"
				if len(field.Names) > 0 {
					name = field.Names[0].Name
				}
				p.Reportf(field.Pos(), "context.Context stored in struct field %s of %s: contexts are call-scoped, pass one per operation (only documented nil-ctx-default option structs may hold one)", name, ts.Name.Name)
			}
			return true
		})
	}
}

// enclosingReceivesContext reports whether any function declaration or
// literal on the ancestor stack has a context.Context parameter (an inner
// literal closes over the outer function's ctx).
func enclosingReceivesContext(p *Pass, stack []ast.Node) bool {
	for _, n := range stack {
		var params *ast.FieldList
		switch fn := n.(type) {
		case *ast.FuncDecl:
			params = fn.Type.Params
		case *ast.FuncLit:
			params = fn.Type.Params
		default:
			continue
		}
		if params == nil {
			continue
		}
		for _, field := range params.List {
			if isNamedType(p.typeOf(field.Type), "context", "Context") {
				return true
			}
		}
	}
	return false
}
