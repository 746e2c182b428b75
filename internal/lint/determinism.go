package lint

import (
	"go/ast"
	"go/types"
)

// Determinism enforces byte-reproducibility of the synthesis core. The
// distributed tier's lowest-index winner is only correct because a
// single-node TrySchedules is deterministic, so the packages on that path
// must not read the wall clock, call any math/rand package-level function,
// or let map iteration order leak into an accumulated slice. Randomness is
// allowed only through an explicitly seeded *rand.Rand handed in by the
// caller (method calls on a generator parameter are fine); constructing
// generators — even seeded ones — is the boundary's job, not the core's.
var Determinism = &Analyzer{
	Name:       "determinism",
	Doc:        "no wall-clock reads, package-level rand, or map-order-dependent accumulation in the synthesis core",
	NeedsTypes: true,
	Run:        runDeterminism,
}

// deterministicPackages are the module-relative packages on the
// reproducibility-critical path.
var deterministicPackages = map[string]bool{
	"internal/core":     true,
	"internal/explicit": true,
	"internal/symbolic": true,
	"internal/protocol": true,
	"internal/bdd":      true,
}

func runDeterminism(p *Pass) {
	if !deterministicPackages[p.RelPath()] {
		return
	}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				obj := p.calleeObject(n)
				if obj == nil || obj.Pkg() == nil {
					return true
				}
				pkg, name := obj.Pkg().Path(), obj.Name()
				if pkg == "time" && (name == "Now" || name == "Since" || name == "Until") {
					p.Reportf(n.Pos(), "wall-clock read time.%s in a deterministic package: results must be byte-reproducible across nodes", name)
				}
				if (pkg == "math/rand" || pkg == "math/rand/v2") && obj.Parent() == obj.Pkg().Scope() {
					p.Reportf(n.Pos(), "%s.%s in a deterministic package: take an explicitly seeded *rand.Rand from the caller instead", pkg, name)
				}
			case *ast.RangeStmt:
				checkMapRangeAppend(p, n)
			}
			return true
		})
	}
}

// checkMapRangeAppend flags appends to variables declared outside a
// map-range loop: the append order follows the map's randomized iteration
// order, so the accumulated slice differs run to run.
func checkMapRangeAppend(p *Pass, rng *ast.RangeStmt) {
	t := p.typeOf(rng.X)
	if t == nil {
		return
	}
	if _, ok := t.Underlying().(*types.Map); !ok {
		return
	}
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, rhs := range as.Rhs {
			call, ok := ast.Unparen(rhs).(*ast.CallExpr)
			if !ok || !isBuiltinAppend(p, call) {
				continue
			}
			var obj types.Object
			switch lhs := ast.Unparen(as.Lhs[i]).(type) {
			case *ast.Ident:
				obj = p.Info.Uses[lhs]
				if obj == nil {
					obj = p.Info.Defs[lhs]
				}
			case *ast.SelectorExpr:
				if sel, okSel := p.Info.Selections[lhs]; okSel {
					obj = sel.Obj()
				}
			}
			if obj == nil || obj.Pos() >= rng.Pos() && obj.Pos() < rng.End() {
				continue // declared inside the loop: order cannot escape
			}
			p.Reportf(as.Pos(), "append inside iteration over a map: iteration order is randomized, so the accumulated slice is nondeterministic — sort the keys first")
		}
		return true
	})
}

func isBuiltinAppend(p *Pass, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "append" {
		return false
	}
	_, isBuiltin := p.Info.Uses[id].(*types.Builtin)
	return isBuiltin
}
