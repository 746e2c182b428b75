package symbolic

import (
	"context"
	"math"

	"stsyn/internal/bdd"
	"stsyn/internal/core"
	"stsyn/internal/protocol"
)

// group is the symbolic representation of a transition group. Because
// w ⊆ r, the group's readable-valuation cube pins the written variables'
// current values, so images are cube cofactors:
//
//	Post_g(X) = (∃ written-bits. X ∧ src) ∧ writeCube
//	Pre_g(X)  = src ∧ X[written := WriteVals]   (a Restrict)
type group struct {
	pg        protocol.Group
	src       bdd.Ref // readable-valuation cube ∧ valid — all source states
	writeCube bdd.Ref // literal cube of the written variables' new values
	writeVars bdd.Ref // positive cube of the written variables' bit levels
	rel       bdd.Ref // lazily built relation over current×next bits (metrics)
}

func (g *group) Proc() int                     { return g.pg.Proc }
func (g *group) ProtocolGroup() protocol.Group { return g.pg }

// Engine is the BDD-backed implementation of core.Engine.
type Engine struct {
	sp  *protocol.Spec
	l   *layout
	m   *bdd.Manager
	cmp *compiler

	valid bdd.Ref
	inv   bdd.Ref

	actions    []core.Group
	candidates []core.Group
	byKey      map[protocol.Key]*group

	// sccs are the components handed out by the last CyclicSCCs call, kept
	// as collection roots until the next call invalidates them.
	sccs []bdd.Ref

	// scratch accumulates the counters of dropped cycle-detection scratch
	// managers so SpaceStats covers the engine's full substrate activity.
	scratch struct {
		ops, hits, misses, evicts, dropped uint64
		peak                               int
	}

	// sccScratch is the scratch manager retained across CyclicSCCs calls:
	// its operation cache stays warm and its persistent→scratch copy memo
	// makes re-migrating the group cubes and the (usually unchanged)
	// `within` set near-free. The memo is flushed when the persistent
	// manager collects (Ref reuse would poison it); the manager itself is
	// dropped and rebuilt when the scratch store outgrows its watermark.
	// nil until first use.
	sccScratch *scratchMgr

	nextBits float64 // number of next-state bit levels (for state counting)

	compactAt int // node threshold for Compact (0 = default)

	ctx context.Context // current synthesis context (nil = no cancellation)

	stats core.Stats
}

// SetContext makes the SCC fixpoints observe ctx: once it is cancelled they
// stop early and return partial results. The caller (core.AddConvergence)
// re-checks the context and discards them.
func (e *Engine) SetContext(ctx context.Context) { e.ctx = ctx }

// canceled reports whether the current synthesis context is cancelled.
func (e *Engine) canceled() bool { return e.ctx != nil && e.ctx.Err() != nil }

var _ core.Engine = (*Engine)(nil)
var _ core.RefRegistry = (*Engine)(nil)
var _ core.SpaceReporter = (*Engine)(nil)

// New builds a symbolic engine for sp.
//
// Every BDD the engine itself holds beyond one call — the valid-state and
// invariant predicates, the compiler's value cubes, and each group's cubes —
// is registered as a garbage-collection root with Keep at its store site;
// everything else is fair game for the manager's mark-and-sweep collector,
// which runs at the safe points inside CyclicSCCs and Compact once the
// live-node watermark (SetCompactionThreshold) is reached.
func New(sp *protocol.Spec) (*Engine, error) {
	return NewWithOrder(sp, DefaultVarOrder(sp))
}

// NewWithOrder builds a symbolic engine whose variables are laid out in
// the given order — any permutation of the spec's variable IDs. Synthesis
// output is independent of the order (FuzzReorderEquivalence pins this);
// only time and node counts change. New uses DefaultVarOrder.
func NewWithOrder(sp *protocol.Spec, order []int) (*Engine, error) {
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	if err := validOrder(sp, order); err != nil {
		return nil, err
	}
	l := newLayoutOrdered(sp, order)
	m := bdd.New(2 * l.total)
	cmp := newCompiler(l, m)
	e := &Engine{
		sp: sp, l: l, m: m, cmp: cmp,
		valid:    m.Keep(cmp.valid()),
		byKey:    make(map[protocol.Key]*group),
		nextBits: float64(l.total),
	}
	e.inv = m.Keep(m.And(cmp.boolExpr(sp.Invariant), e.valid))
	for pi := range sp.Procs {
		for _, pg := range sp.ActionGroups(pi) {
			e.actions = append(e.actions, e.intern(pg))
		}
		for _, pg := range sp.CandidateGroups(pi) {
			e.candidates = append(e.candidates, e.intern(pg))
		}
	}
	m.SetGCWatermark(DefaultCompactionThreshold)
	return e, nil
}

// Manager exposes the underlying BDD manager (for space metrics).
func (e *Engine) Manager() *bdd.Manager { return e.m }

func (e *Engine) intern(pg protocol.Group) *group {
	if g, ok := e.byKey[pg.Key()]; ok {
		return g
	}
	p := &e.sp.Procs[pg.Proc]
	var readLits, writeLits []bdd.Literal
	var writeVarLevels []int
	for i, id := range p.Reads {
		readLits = append(readLits, e.l.valueLits(id, pg.ReadVals[i], false)...)
	}
	for i, id := range p.Writes {
		writeLits = append(writeLits, e.l.valueLits(id, pg.WriteVals[i], false)...)
		for b := 0; b < e.l.bitsOf[id]; b++ {
			writeVarLevels = append(writeVarLevels, e.l.curLevel(id, b))
		}
	}
	g := &group{
		pg:        pg,
		src:       e.m.Keep(e.m.And(e.m.LiteralCube(readLits), e.valid)),
		writeCube: e.m.Keep(e.m.LiteralCube(writeLits)),
		writeVars: e.m.Keep(e.m.Cube(writeVarLevels)),
	}
	e.byKey[pg.Key()] = g
	return g
}

// postGroup returns the successors of the sources of g inside X.
func (e *Engine) postGroup(g *group, x bdd.Ref) bdd.Ref {
	srcs := e.m.And(x, g.src)
	if srcs == bdd.False {
		return bdd.False
	}
	return e.m.And(e.m.Exists(srcs, g.writeVars), g.writeCube)
}

// --- core.Engine implementation -----------------------------------------

func (e *Engine) Spec() *protocol.Spec { return e.sp }
func (e *Engine) Universe() core.Set   { return e.valid }
func (e *Engine) Empty() core.Set      { return bdd.False }
func (e *Engine) Invariant() core.Set  { return e.inv }

func (e *Engine) Or(a, b core.Set) core.Set   { return e.m.Or(a.(bdd.Ref), b.(bdd.Ref)) }
func (e *Engine) And(a, b core.Set) core.Set  { return e.m.And(a.(bdd.Ref), b.(bdd.Ref)) }
func (e *Engine) Diff(a, b core.Set) core.Set { return e.m.Diff(a.(bdd.Ref), b.(bdd.Ref)) }
func (e *Engine) Not(a core.Set) core.Set     { return e.m.Diff(e.valid, a.(bdd.Ref)) }
func (e *Engine) IsEmpty(a core.Set) bool     { return a.(bdd.Ref) == bdd.False }
func (e *Engine) Equal(a, b core.Set) bool    { return a.(bdd.Ref) == b.(bdd.Ref) }

func (e *Engine) States(a core.Set) float64 {
	return e.m.SatCount(a.(bdd.Ref)) / math.Pow(2, e.nextBits)
}

func (e *Engine) SetSize(a core.Set) int { return e.m.DagSize(a.(bdd.Ref)) }

func (e *Engine) ActionGroups() []core.Group    { return append([]core.Group(nil), e.actions...) }
func (e *Engine) CandidateGroups() []core.Group { return append([]core.Group(nil), e.candidates...) }

func (e *Engine) GroupSrc(g core.Group) core.Set { return g.(*group).src }

// GroupSrcIntersects is a node-free
// satisfiability walk of src ∧ X on the persistent manager.
func (e *Engine) GroupSrcIntersects(g core.Group, X core.Set) bool {
	return e.m.Intersects(g.(*group).src, X.(bdd.Ref))
}

// The recovery probes below answer yes/no questions about one group's
// transitions. A transition of g from s ends in X exactly when s ∈ src ∧
// Restrict(X, wcube), so each probe is one node-free Intersects walk of
// src against an operand that depends on the group only through its write
// cube: the scratch manager's operation cache shares it across the groups
// of one cube, and the per-group work builds no nodes.

func (e *Engine) GroupDstInto(g core.Group, X core.Set) bool {
	gg := g.(*group)
	c := e.imgCtx()
	return c.srcMeets(gg, c.m.Restrict(c.copyIn(X.(bdd.Ref), c.memo), c.copyIn(gg.writeCube, c.memo)))
}

func (e *Engine) GroupFromTo(g core.Group, from, to core.Set) bool {
	gg := g.(*group)
	c := e.imgCtx()
	return c.srcMeets(gg, c.fromTo(c.copyIn(from.(bdd.Ref), c.memo), c.copyIn(to.(bdd.Ref), c.memo), gg))
}

// SCCGroups probes every (component, group) pair with GroupFromTo. Each
// probe is a node-free walk whose from ∧ Restrict(to, wcube) operand the
// scratch manager's operation cache shares across the groups of one
// write cube.
func (e *Engine) SCCGroups(gs []core.Group, sccs []core.Set) [][]int {
	return core.PairwiseSCCGroups(e, gs, sccs)
}

func (e *Engine) Post(gs []core.Group, X core.Set) core.Set {
	x := X.(bdd.Ref)
	out := bdd.False
	for _, g := range gs {
		out = e.m.Or(out, e.postGroup(g.(*group), x))
	}
	return out
}

func (e *Engine) EnabledSources(gs []core.Group) core.Set {
	out := bdd.False
	for _, g := range gs {
		out = e.m.Or(out, g.(*group).src)
	}
	return out
}

func (e *Engine) PickState(a core.Set) (protocol.State, bool) {
	cube := e.m.PickCube(a.(bdd.Ref))
	if cube == nil {
		return nil, false
	}
	s := make(protocol.State, len(e.sp.Vars))
	for id := range e.sp.Vars {
		n := e.l.bitsOf[id]
		v := 0
		for b := 0; b < n; b++ {
			v <<= 1
			if cube[e.l.curLevel(id, b)] == 1 {
				v |= 1
			}
		}
		s[id] = v
	}
	return s, true
}

func (e *Engine) Singleton(s protocol.State) core.Set {
	var lits []bdd.Literal
	for id, val := range s {
		lits = append(lits, e.l.valueLits(id, val, false)...)
	}
	return e.m.LiteralCube(lits)
}

// ProgramSize returns the number of nodes of the shared multi-rooted BDD
// holding one faithful transition relation per group (current and
// next-state bits interleaved, unchanged variables constrained equal) —
// the paper's "total program size" metric.
func (e *Engine) ProgramSize(gs []core.Group) int {
	roots := make([]bdd.Ref, 0, len(gs))
	for _, g := range gs {
		roots = append(roots, e.relation(g.(*group)))
	}
	return e.m.SharedDagSize(roots)
}

// relation builds (and caches) the group's transition relation.
func (e *Engine) relation(g *group) bdd.Ref {
	if g.rel != bdd.False {
		return g.rel
	}
	p := &e.sp.Procs[g.pg.Proc]
	written := make(map[int]bool, len(p.Writes))
	var lits []bdd.Literal
	for i, id := range p.Reads {
		lits = append(lits, e.l.valueLits(id, g.pg.ReadVals[i], false)...)
	}
	for i, id := range p.Writes {
		written[id] = true
		lits = append(lits, e.l.valueLits(id, g.pg.WriteVals[i], true)...)
	}
	rel := e.m.LiteralCube(lits)
	// Unwritten variables keep their values: conjoin bitwise equalities,
	// bottom-up to keep intermediate BDDs small.
	for id := len(e.sp.Vars) - 1; id >= 0; id-- {
		if written[id] {
			continue
		}
		for b := e.l.bitsOf[id] - 1; b >= 0; b-- {
			cur := e.m.Var(e.l.curLevel(id, b))
			nxt := e.m.Var(e.l.nextLevel(id, b))
			rel = e.m.And(rel, e.m.Not(e.m.Xor(cur, nxt)))
		}
	}
	g.rel = e.m.Keep(e.m.And(rel, e.valid))
	return g.rel
}

func (e *Engine) Stats() *core.Stats { return &e.stats }

// Retain implements core.RefRegistry: the set becomes a garbage-collection
// root until a matching Release. Set identities are stable across
// collections, so the same value is returned.
func (e *Engine) Retain(a core.Set) core.Set {
	return e.m.Keep(a.(bdd.Ref))
}

// Release implements core.RefRegistry.
func (e *Engine) Release(a core.Set) { e.m.Release(a.(bdd.Ref)) }

// SpaceStats implements core.SpaceReporter. Node-store occupancy figures
// (live, allocated, table load) describe the persistent manager; the cache
// counters include the scratch managers used for cycle detection; peak is
// the largest live-node count any manager reached; GCReclaimed counts
// mark-and-sweep reclamation on the persistent store plus nodes dropped
// wholesale with scratch managers.
func (e *Engine) SpaceStats() core.SpaceStats {
	st := e.m.Stats()
	hits := st.CacheHits + e.scratch.hits
	misses := st.CacheMisses + e.scratch.misses
	rate := 0.0
	if hits+misses > 0 {
		rate = float64(hits) / float64(hits+misses)
	}
	peak := st.PeakLiveNodes
	if e.scratch.peak > peak {
		peak = e.scratch.peak
	}
	return core.SpaceStats{
		LiveNodes:       st.LiveNodes,
		PeakLiveNodes:   peak,
		AllocatedSlots:  st.AllocatedSlots,
		UniqueTableLoad: st.UniqueTableLoad,
		CacheSize:       st.CacheSize,
		CacheHits:       hits,
		CacheMisses:     misses,
		CacheEvictions:  st.CacheEvictions + e.scratch.evicts,
		CacheHitRate:    rate,
		GCRuns:          st.GCRuns,
		GCReclaimed:     st.GCReclaimed + e.scratch.dropped,
	}
}
