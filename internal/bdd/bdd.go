// Package bdd implements reduced ordered binary decision diagrams with a
// shared, hash-consed node store and a two-way set-associative operation
// cache. It plays the role CUDD/GLU plays in the paper's STSyn
// implementation: the symbolic engine represents state predicates and
// transition groups as BDDs and reports space usage in BDD nodes
// (Figures 7, 9 and 11).
//
// The variable order is fixed at construction time; there is no dynamic
// reordering. A manager's node store only grows: every Ref stays valid for
// the manager's lifetime, and the memory is reclaimed by dropping the whole
// manager. Callers that generate much garbage run it in a separate scratch
// manager and copy the results back (CopyFrom).
package bdd

import "fmt"

// Ref is a reference to a BDD node owned by a Manager. The zero Ref is the
// constant false, making the zero value of Ref-typed fields meaningful.
type Ref uint32

// Constant terminals.
const (
	False Ref = 0
	True  Ref = 1
)

type node struct {
	level    int32 // variable level; terminals use the sentinel level nvars
	lo, hi   Ref   // cofactors for level-variable = 0 / 1
	nextHash uint32
}

// Manager owns a shared BDD node store over a fixed number of boolean
// variables (levels 0..N-1; lower level = closer to the root).
type Manager struct {
	nvars int32
	nodes []node

	buckets []uint32 // unique-table heads, index by hash; 0 = empty
	mask    uint32

	// Operation cache: two-way set-associative over pairs of adjacent
	// entries. Set s occupies cache[2s] (the most recently used way) and
	// cache[2s+1] (the victim way). A direct-mapped cache loses a warm
	// result to every conflicting store; the victim way keeps it reachable
	// for one more generation, which measures as a higher hit rate on the
	// ping-ponging ITE/Exists mixes of image fixpoints at the cost of one
	// extra compare per probe.
	cache []cacheEntry
	cmask uint32 // number of sets minus one

	cacheHits   uint64
	cacheMisses uint64
	cacheEvicts uint64 // valid entries overwritten by a different key
}

// cacheEntry is one way of the operation cache. Op codes start at 1, so
// an entry whose op is 0 is an empty way: New leaves every way zeroed.
type cacheEntry struct {
	op      uint32
	a, b, c Ref
	result  Ref
}

// occupied reports whether the way holds a result.
func (e *cacheEntry) occupied() bool { return e.op != 0 }

// Operation codes for the cache.
const (
	opITE uint32 = iota + 1
	opExists
	opRestrict
	opIntersects
)

// cacheSize is the operation cache's fixed size in entries (both ways). A
// cache much larger than the L2 working set turns every probe into a DRAM
// miss, which measured slower than the extra conflict evictions it avoids.
const cacheSize = 1 << 16

// New creates a manager over nvars boolean variables.
func New(nvars int) *Manager {
	if nvars < 0 || nvars >= 1<<30 {
		panic(fmt.Sprintf("bdd: invalid variable count %d", nvars))
	}
	m := &Manager{nvars: int32(nvars)}
	m.nodes = make([]node, 2, 1024)
	m.nodes[False] = node{level: m.nvars}
	m.nodes[True] = node{level: m.nvars}
	m.buckets = make([]uint32, 1<<14)
	m.mask = uint32(len(m.buckets) - 1)
	m.cache = make([]cacheEntry, cacheSize)
	m.cmask = cacheSize/2 - 1
	return m
}

// NumVars returns the number of boolean variables.
func (m *Manager) NumVars() int { return int(m.nvars) }

// Size returns the number of nodes in the store, terminals included.
func (m *Manager) Size() int { return len(m.nodes) }

func (m *Manager) level(f Ref) int32 { return m.nodes[f].level }

// IsTerminal reports whether f is a constant.
func (m *Manager) IsTerminal(f Ref) bool { return f <= True }

// Stats is a point-in-time snapshot of the manager's memory and cache
// behavior — the substrate metrics the service and benches export.
type Stats struct {
	NumVars         int
	LiveNodes       int     // nodes in the store, terminals included
	UniqueTableSize int     // bucket count
	UniqueTableLoad float64 // nodes per bucket
	CacheSize       int     // operation-cache entries (both ways)
	CacheHits       uint64
	CacheMisses     uint64
	CacheEvictions  uint64  // valid entries overwritten by a different key
	CacheHitRate    float64 // hits / lookups; 0 when no lookups yet
}

// Stats returns a snapshot of the manager's counters.
func (m *Manager) Stats() Stats {
	s := Stats{
		NumVars:         int(m.nvars),
		LiveNodes:       len(m.nodes),
		UniqueTableSize: len(m.buckets),
		UniqueTableLoad: float64(len(m.nodes)) / float64(len(m.buckets)),
		CacheSize:       len(m.cache),
		CacheHits:       m.cacheHits,
		CacheMisses:     m.cacheMisses,
		CacheEvictions:  m.cacheEvicts,
	}
	if lookups := m.cacheHits + m.cacheMisses; lookups > 0 {
		s.CacheHitRate = float64(m.cacheHits) / float64(lookups)
	}
	return s
}

// --- node store -----------------------------------------------------------

func hash3(a, b, c uint32) uint32 {
	h := uint64(a)*0x9e3779b97f4a7c15 ^ uint64(b)*0xbf58476d1ce4e5b9 ^ uint64(c)*0x94d049bb133111eb
	h ^= h >> 29
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 32
	return uint32(h)
}

// mk returns the canonical node (level, lo, hi), applying the reduction rule
// and hash-consing.
func (m *Manager) mk(level int32, lo, hi Ref) Ref {
	if lo == hi {
		return lo
	}
	h := hash3(uint32(level), uint32(lo), uint32(hi)) & m.mask
	for i := m.buckets[h]; i != 0; i = m.nodes[i].nextHash {
		n := &m.nodes[i]
		if n.level == level && n.lo == lo && n.hi == hi {
			return Ref(i)
		}
	}
	idx := uint32(len(m.nodes))
	m.nodes = append(m.nodes, node{level: level, lo: lo, hi: hi, nextHash: m.buckets[h]})
	m.buckets[h] = idx
	if len(m.nodes) > len(m.buckets)*2 { // keep chains short
		m.rehash()
	}
	return Ref(idx)
}

// rehash doubles the unique table and re-chains every node. Refs are
// untouched, so canonicity is preserved.
func (m *Manager) rehash() {
	m.buckets = make([]uint32, len(m.buckets)*2)
	m.mask = uint32(len(m.buckets) - 1)
	for i := 2; i < len(m.nodes); i++ {
		n := &m.nodes[i]
		h := hash3(uint32(n.level), uint32(n.lo), uint32(n.hi)) & m.mask
		n.nextHash = m.buckets[h]
		m.buckets[h] = uint32(i)
	}
}

// --- operation cache ------------------------------------------------------

// cacheSlot returns the index of the first (MRU) way of the entry's set.
func (m *Manager) cacheSlot(op uint32, a, b, c Ref) uint32 {
	return ((hash3(op, uint32(a), uint32(b)) ^ uint32(c)*0x85ebca6b) & m.cmask) * 2
}

func (e *cacheEntry) is(op uint32, a, b, c Ref) bool {
	return e.op == op && e.a == a && e.b == b && e.c == c
}

func (m *Manager) cacheGet(op uint32, a, b, c Ref) (Ref, bool) {
	s := m.cacheSlot(op, a, b, c)
	e0 := &m.cache[s]
	if e0.is(op, a, b, c) {
		m.cacheHits++
		return e0.result, true
	}
	e1 := &m.cache[s+1]
	if e1.is(op, a, b, c) {
		// Hit in the victim way: promote to MRU so the set's true LRU entry
		// is the one the next conflicting store pushes out.
		m.cacheHits++
		r := e1.result
		*e0, *e1 = *e1, *e0
		return r, true
	}
	if e0.occupied() && e1.occupied() {
		// Both ways occupied by other keys: the cachePut completing this
		// operation will evict the victim way. Detected here rather than in
		// cachePut so the store stays a cheap unconditional shift.
		m.cacheEvicts++
	}
	m.cacheMisses++
	return 0, false
}

func (m *Manager) cachePut(op uint32, a, b, c, r Ref) {
	s := m.cacheSlot(op, a, b, c)
	e0 := &m.cache[s]
	if !e0.is(op, a, b, c) {
		// Shift the old MRU into the victim way (dropping the set's LRU
		// entry, whose eviction the probe above already counted).
		m.cache[s+1] = *e0
	}
	*e0 = cacheEntry{op: op, a: a, b: b, c: c, result: r}
}

// --- literals and cubes ---------------------------------------------------

// Var returns the BDD of the positive literal for variable level v.
func (m *Manager) Var(v int) Ref {
	if v < 0 || int32(v) >= m.nvars {
		panic(fmt.Sprintf("bdd: variable %d out of range [0,%d)", v, m.nvars))
	}
	return m.mk(int32(v), False, True)
}

// NVar returns the BDD of the negative literal for variable level v.
func (m *Manager) NVar(v int) Ref {
	if v < 0 || int32(v) >= m.nvars {
		panic(fmt.Sprintf("bdd: variable %d out of range [0,%d)", v, m.nvars))
	}
	return m.mk(int32(v), True, False)
}

// cofactors splits f at the given level.
func (m *Manager) cofactors(f Ref, level int32) (lo, hi Ref) {
	n := &m.nodes[f]
	if n.level != level {
		return f, f
	}
	return n.lo, n.hi
}

// ITE computes if-then-else: f·g ∨ ¬f·h.
func (m *Manager) ITE(f, g, h Ref) Ref {
	// Terminal cases.
	switch {
	case f == True:
		return g
	case f == False:
		return h
	case g == h:
		return g
	case g == True && h == False:
		return f
	}
	if r, ok := m.cacheGet(opITE, f, g, h); ok {
		return r
	}
	top := m.level(f)
	if l := m.level(g); l < top {
		top = l
	}
	if l := m.level(h); l < top {
		top = l
	}
	f0, f1 := m.cofactors(f, top)
	g0, g1 := m.cofactors(g, top)
	h0, h1 := m.cofactors(h, top)
	r := m.mk(top, m.ITE(f0, g0, h0), m.ITE(f1, g1, h1))
	m.cachePut(opITE, f, g, h, r)
	return r
}

// Intersects reports whether f ∧ g is satisfiable — And(f, g) != False —
// without building the conjunction: the walk allocates no nodes, exits at
// the first satisfying pair of cofactors, and caches each visited operand
// pair (result True or False) so shared subgraphs are walked once.
func (m *Manager) Intersects(f, g Ref) bool {
	switch {
	case f == False || g == False:
		return false
	case f == True || g == True || f == g:
		// A reduced BDD other than False has a satisfying path.
		return true
	}
	if f > g {
		f, g = g, f // the conjunction commutes: one cache key per pair
	}
	if r, ok := m.cacheGet(opIntersects, f, g, 0); ok {
		return r == True
	}
	top := m.level(f)
	if l := m.level(g); l < top {
		top = l
	}
	f0, f1 := m.cofactors(f, top)
	g0, g1 := m.cofactors(g, top)
	hit := m.Intersects(f0, g0) || m.Intersects(f1, g1)
	r := False
	if hit {
		r = True
	}
	m.cachePut(opIntersects, f, g, 0, r)
	return hit
}

// And, Or, Xor, Not, Diff and Imp are the usual boolean connectives.
func (m *Manager) And(f, g Ref) Ref  { return m.ITE(f, g, False) }
func (m *Manager) Or(f, g Ref) Ref   { return m.ITE(f, True, g) }
func (m *Manager) Not(f Ref) Ref     { return m.ITE(f, False, True) }
func (m *Manager) Xor(f, g Ref) Ref  { return m.ITE(f, m.Not(g), g) }
func (m *Manager) Diff(f, g Ref) Ref { return m.ITE(g, False, f) }
func (m *Manager) Imp(f, g Ref) Ref  { return m.ITE(f, g, True) }

// Exists existentially quantifies away every variable in cube, which must
// be a positive cube (a conjunction of positive literals, e.g. from Cube).
func (m *Manager) Exists(f, cube Ref) Ref {
	if m.IsTerminal(f) || cube == True {
		return f
	}
	if cube == False {
		panic("bdd: Exists with false cube")
	}
	if r, ok := m.cacheGet(opExists, f, cube, 0); ok {
		return r
	}
	fl, cl := m.level(f), m.level(cube)
	var r Ref
	switch {
	case cl < fl:
		// Quantified variable does not appear in f at this level.
		r = m.Exists(f, m.nodes[cube].hi)
	case cl == fl:
		lo := m.Exists(m.nodes[f].lo, m.nodes[cube].hi)
		hi := m.Exists(m.nodes[f].hi, m.nodes[cube].hi)
		r = m.Or(lo, hi)
	default:
		lo := m.Exists(m.nodes[f].lo, cube)
		hi := m.Exists(m.nodes[f].hi, cube)
		r = m.mk(fl, lo, hi)
	}
	m.cachePut(opExists, f, cube, 0, r)
	return r
}

// Restrict cofactors f by a literal cube (conjunction of positive and/or
// negative literals): every variable mentioned in the cube is fixed to the
// polarity it has there. Restrict(f, c) equals ∃vars(c). (f ∧ c).
func (m *Manager) Restrict(f, cube Ref) Ref {
	if cube == True || m.IsTerminal(f) {
		return f
	}
	if cube == False {
		panic("bdd: Restrict with false cube")
	}
	if r, ok := m.cacheGet(opRestrict, f, cube, 0); ok {
		return r
	}
	fl := m.level(f)
	// Skip cube variables above f.
	c := cube
	for !m.IsTerminal(c) && m.level(c) < fl {
		if m.nodes[c].hi != False {
			c = m.nodes[c].hi
		} else {
			c = m.nodes[c].lo
		}
	}
	var r Ref
	if m.IsTerminal(c) {
		r = f
	} else if m.level(c) == fl {
		if m.nodes[c].hi != False { // positive literal: take the hi branch
			r = m.Restrict(m.nodes[f].hi, m.nodes[c].hi)
		} else { // negative literal
			r = m.Restrict(m.nodes[f].lo, m.nodes[c].lo)
		}
	} else {
		lo := m.Restrict(m.nodes[f].lo, c)
		hi := m.Restrict(m.nodes[f].hi, c)
		r = m.mk(fl, lo, hi)
	}
	m.cachePut(opRestrict, f, cube, 0, r)
	return r
}

// Cube builds the positive cube of the given variable levels.
func (m *Manager) Cube(vars []int) Ref {
	r := True
	for i := len(vars) - 1; i >= 0; i-- {
		r = m.And(m.Var(vars[i]), r)
	}
	return r
}

// Literal is one variable assignment in a cube.
type Literal struct {
	Var int
	Val bool
}

// LiteralCube builds the conjunction of the given literals.
func (m *Manager) LiteralCube(lits []Literal) Ref {
	r := True
	for i := len(lits) - 1; i >= 0; i-- {
		l := m.Var(lits[i].Var)
		if !lits[i].Val {
			l = m.Not(l)
		}
		r = m.And(l, r)
	}
	return r
}
