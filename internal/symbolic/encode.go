// Package symbolic is the BDD-backed engine: state predicates are BDDs over
// a binary encoding of the protocol variables, transition groups are
// (source-cube, write-cube) pairs whose image operations reduce to cube
// cofactors, and non-progress cycles are found with a Gentilini-style
// skeleton-based symbolic SCC enumeration after trimming to the cycle core.
// This is the engine that scales to the paper's largest experiments (three
// coloring with 40 processes, ~3^40 states).
package symbolic

import (
	"fmt"
	"math/bits"
	"sort"

	"stsyn/internal/bdd"
	"stsyn/internal/protocol"
)

// layout maps protocol variables to BDD variable levels. Each protocol
// variable v with domain d gets ⌈log₂ d⌉ bits, most significant first,
// with the variables laid out in a chosen order (DefaultVarOrder unless
// the engine was built with NewWithOrder). Current-state and next-state
// bits are interleaved (current at even levels); next-state bits are used
// only to build faithful transition relations for the BDD-node space
// metric.
type layout struct {
	sp       *protocol.Spec
	order    []int // protocol variable IDs in layout order
	bitsOf   []int // bits per protocol variable
	firstBit []int // index of the variable's first bit (bit space, not level)
	total    int   // total current-state bits
}

// DefaultVarOrder returns the engine's static variable order: protocol
// variables grouped by process locality — each variable is placed with the
// lowest-numbered process that writes it (falling back to the lowest
// reader for read-only variables), ties broken by variable ID. BDD sizes
// of conjunctions of per-process constraints grow with the spread of each
// process's support across the order, so clustering a process's variables
// keeps the group cubes and fixpoint intermediates narrow. For the ring
// topologies of the paper's case studies (one written variable per
// process, declared in process order) this is the identity.
func DefaultVarOrder(sp *protocol.Spec) []int {
	owner := make([]int, len(sp.Vars))
	for id := range owner {
		owner[id] = len(sp.Procs) // unreferenced variables sort last
	}
	written := make([]bool, len(sp.Vars))
	for pi := range sp.Procs {
		for _, id := range sp.Procs[pi].Writes {
			if !written[id] || pi < owner[id] {
				owner[id] = pi
			}
			written[id] = true
		}
	}
	for pi := range sp.Procs {
		for _, id := range sp.Procs[pi].Reads {
			if !written[id] && pi < owner[id] {
				owner[id] = pi
			}
		}
	}
	order := make([]int, len(sp.Vars))
	for id := range order {
		order[id] = id
	}
	sort.SliceStable(order, func(i, j int) bool {
		return owner[order[i]] < owner[order[j]]
	})
	return order
}

// validOrder checks that order is a permutation of the spec's variable IDs.
func validOrder(sp *protocol.Spec, order []int) error {
	if len(order) != len(sp.Vars) {
		return fmt.Errorf("symbolic: variable order has %d entries for %d variables", len(order), len(sp.Vars))
	}
	seen := make([]bool, len(sp.Vars))
	for _, id := range order {
		if id < 0 || id >= len(sp.Vars) || seen[id] {
			return fmt.Errorf("symbolic: variable order is not a permutation: %v", order)
		}
		seen[id] = true
	}
	return nil
}

func newLayout(sp *protocol.Spec) *layout {
	return newLayoutOrdered(sp, DefaultVarOrder(sp))
}

// newLayoutOrdered lays the variables out in the given order (a permutation
// of the variable IDs, already validated by the caller).
func newLayoutOrdered(sp *protocol.Spec, order []int) *layout {
	l := &layout{sp: sp, order: append([]int(nil), order...)}
	l.bitsOf = make([]int, len(sp.Vars))
	l.firstBit = make([]int, len(sp.Vars))
	for i, v := range sp.Vars {
		n := bits.Len(uint(v.Dom - 1))
		if n == 0 {
			n = 1 // domain of size 1 still gets one (constant-0) bit
		}
		l.bitsOf[i] = n
	}
	for _, id := range order {
		l.firstBit[id] = l.total
		l.total += l.bitsOf[id]
	}
	return l
}

// curLevel returns the BDD level of bit b (0 = MSB) of variable id in the
// current state; nextLevel the corresponding next-state level.
func (l *layout) curLevel(id, b int) int  { return 2 * (l.firstBit[id] + b) }
func (l *layout) nextLevel(id, b int) int { return 2*(l.firstBit[id]+b) + 1 }

// valueLits returns the literal cube fixing variable id to val in the
// current state (or the next state when next is true).
func (l *layout) valueLits(id, val int, next bool) []bdd.Literal {
	n := l.bitsOf[id]
	lits := make([]bdd.Literal, n)
	for b := 0; b < n; b++ {
		lvl := l.curLevel(id, b)
		if next {
			lvl = l.nextLevel(id, b)
		}
		lits[b] = bdd.Literal{Var: lvl, Val: val>>(n-1-b)&1 == 1}
	}
	return lits
}

// compiler turns expression ASTs into BDDs over the current-state bits.
type compiler struct {
	l   *layout
	m   *bdd.Manager
	eqc [][]bdd.Ref // eqc[id][val] = BDD of "variable id has value val"
}

func newCompiler(l *layout, m *bdd.Manager) *compiler {
	c := &compiler{l: l, m: m}
	c.eqc = make([][]bdd.Ref, len(l.sp.Vars))
	for id, v := range l.sp.Vars {
		c.eqc[id] = make([]bdd.Ref, v.Dom)
		for val := 0; val < v.Dom; val++ {
			c.eqc[id][val] = m.LiteralCube(l.valueLits(id, val, false))
		}
	}
	return c
}

// valid returns the predicate excluding binary codepoints outside the
// variable domains.
func (c *compiler) valid() bdd.Ref {
	r := bdd.True
	for id := range c.l.sp.Vars {
		dv := bdd.False
		for _, eq := range c.eqc[id] {
			dv = c.m.Or(dv, eq)
		}
		r = c.m.And(r, dv)
	}
	return r
}

// intExpr compiles an integer expression to a value→predicate table.
func (c *compiler) intExpr(e protocol.IntExpr) map[int]bdd.Ref {
	switch x := e.(type) {
	case protocol.V:
		out := make(map[int]bdd.Ref, len(c.eqc[x.ID]))
		for val, eq := range c.eqc[x.ID] {
			out[val] = eq
		}
		return out
	case protocol.C:
		return map[int]bdd.Ref{x.Val: bdd.True}
	case protocol.AddMod:
		return c.modArith(x.A, x.B, x.Mod, func(a, b int) int { return (a + b) % x.Mod })
	case protocol.SubMod:
		return c.modArith(x.A, x.B, x.Mod, func(a, b int) int { return ((a-b)%x.Mod + x.Mod) % x.Mod })
	case protocol.Cond:
		cond := c.boolExpr(x.If)
		ncond := c.m.Not(cond)
		out := make(map[int]bdd.Ref)
		then, els := c.intExpr(x.Then), c.intExpr(x.Else)
		for _, val := range sortedVals(then) {
			out[val] = c.m.Or(out[val], c.m.And(cond, then[val]))
		}
		for _, val := range sortedVals(els) {
			out[val] = c.m.Or(out[val], c.m.And(ncond, els[val]))
		}
		return out
	default:
		panic("symbolic: unknown integer expression")
	}
}

func (c *compiler) modArith(a, b protocol.IntExpr, mod int, op func(a, b int) int) map[int]bdd.Ref {
	av := c.intExpr(a)
	bv := c.intExpr(b)
	out := make(map[int]bdd.Ref)
	bvals := sortedVals(bv)
	for _, v1 := range sortedVals(av) {
		for _, v2 := range bvals {
			val := op(v1, v2)
			out[val] = c.m.Or(out[val], c.m.And(av[v1], bv[v2]))
		}
	}
	return out
}

// sortedVals returns a value table's values in ascending order. The
// compiler folds tables in this order, not the map's: the resulting
// predicates are canonical either way, but the intermediate nodes — and so
// the engine's node and cache statistics — would differ run to run.
func sortedVals(t map[int]bdd.Ref) []int {
	vals := make([]int, 0, len(t))
	for v := range t {
		vals = append(vals, v) //lint:ignore determinism the keys are sorted right below
	}
	sort.Ints(vals)
	return vals
}

// boolExpr compiles a boolean expression to a predicate.
func (c *compiler) boolExpr(e protocol.BoolExpr) bdd.Ref {
	switch x := e.(type) {
	case protocol.True:
		return bdd.True
	case protocol.False:
		return bdd.False
	case protocol.Eq:
		return c.compare(x.A, x.B, func(a, b int) bool { return a == b })
	case protocol.Neq:
		return c.compare(x.A, x.B, func(a, b int) bool { return a != b })
	case protocol.Lt:
		return c.compare(x.A, x.B, func(a, b int) bool { return a < b })
	case protocol.Not:
		return c.m.Not(c.boolExpr(x.X))
	case protocol.And:
		r := bdd.True
		for _, y := range x.Xs {
			r = c.m.And(r, c.boolExpr(y))
		}
		return r
	case protocol.Or:
		r := bdd.False
		for _, y := range x.Xs {
			r = c.m.Or(r, c.boolExpr(y))
		}
		return r
	case protocol.Implies:
		return c.m.Imp(c.boolExpr(x.A), c.boolExpr(x.B))
	default:
		panic("symbolic: unknown boolean expression")
	}
}

func (c *compiler) compare(a, b protocol.IntExpr, rel func(a, b int) bool) bdd.Ref {
	av := c.intExpr(a)
	bv := c.intExpr(b)
	r := bdd.False
	bvals := sortedVals(bv)
	for _, v1 := range sortedVals(av) {
		for _, v2 := range bvals {
			if rel(v1, v2) {
				r = c.m.Or(r, c.m.And(av[v1], bv[v2]))
			}
		}
	}
	return r
}
