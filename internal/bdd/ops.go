package bdd

import "math"

// SatCount returns the number of satisfying assignments of f over all
// NumVars variables, as a float64 (state-space sizes in the paper reach
// 3^40, beyond uint64 for boolean encodings with invalid codepoints).
func (m *Manager) SatCount(f Ref) float64 {
	memo := make(map[Ref]float64)
	var count func(Ref) float64
	count = func(g Ref) float64 {
		if g == False {
			return 0
		}
		if g == True {
			return 1
		}
		if c, ok := memo[g]; ok {
			return c
		}
		n := &m.nodes[g]
		lo := count(n.lo) * math.Pow(2, float64(m.level(n.lo)-n.level-1))
		hi := count(n.hi) * math.Pow(2, float64(m.level(n.hi)-n.level-1))
		c := lo + hi
		memo[g] = c
		return c
	}
	return count(f) * math.Pow(2, float64(m.level(f)))
}

// PickCube returns one satisfying assignment of f as a slice indexed by
// variable level: 0, 1, or -1 for "don't care". Returns nil if f is
// unsatisfiable.
func (m *Manager) PickCube(f Ref) []int8 {
	if f == False {
		return nil
	}
	cube := make([]int8, m.nvars)
	for i := range cube {
		cube[i] = -1
	}
	for !m.IsTerminal(f) {
		n := &m.nodes[f]
		if n.hi != False {
			cube[n.level] = 1
			f = n.hi
		} else {
			cube[n.level] = 0
			f = n.lo
		}
	}
	return cube
}

// DagSize returns the number of distinct nodes in the DAG rooted at f,
// including terminals. This is the paper's per-predicate "number of BDD
// nodes" metric.
func (m *Manager) DagSize(f Ref) int {
	seen := make(map[Ref]bool)
	var walk func(Ref)
	walk = func(g Ref) {
		if seen[g] {
			return
		}
		seen[g] = true
		if !m.IsTerminal(g) {
			walk(m.nodes[g].lo)
			walk(m.nodes[g].hi)
		}
	}
	walk(f)
	return len(seen)
}

// SharedDagSize returns the number of distinct nodes in the union of the
// DAGs rooted at the given functions — the size of a shared multi-rooted
// BDD, the natural "total program size" metric for a set of groups.
func (m *Manager) SharedDagSize(fs []Ref) int {
	seen := make(map[Ref]bool)
	var walk func(Ref)
	walk = func(g Ref) {
		if seen[g] {
			return
		}
		seen[g] = true
		if !m.IsTerminal(g) {
			walk(m.nodes[g].lo)
			walk(m.nodes[g].hi)
		}
	}
	for _, f := range fs {
		walk(f)
	}
	return len(seen)
}

// CopyFrom migrates a BDD rooted at f in the source manager into m, which
// must have the same variable order. memo caches translations across calls
// (pass the same map to amortize shared structure).
//
// This enables scoped scratch managers: run a garbage-heavy computation in
// a separate manager, copy the (small) results back, and drop the scratch
// manager — a wholesale garbage collection.
func (m *Manager) CopyFrom(src *Manager, f Ref, memo map[Ref]Ref) Ref {
	if src.nvars != m.nvars {
		panic("bdd: CopyFrom between managers with different variable counts")
	}
	if f <= True {
		return f
	}
	if r, ok := memo[f]; ok {
		return r
	}
	n := &src.nodes[f]
	lo := m.CopyFrom(src, n.lo, memo)
	hi := m.CopyFrom(src, n.hi, memo)
	r := m.mk(n.level, lo, hi)
	memo[f] = r
	return r
}

// Eval evaluates f under a complete assignment indexed by variable level.
func (m *Manager) Eval(f Ref, assignment []bool) bool {
	for !m.IsTerminal(f) {
		n := &m.nodes[f]
		if assignment[n.level] {
			f = n.hi
		} else {
			f = n.lo
		}
	}
	return f == True
}
