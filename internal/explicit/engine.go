package explicit

import (
	"context"
	"fmt"
	"math"

	"stsyn/internal/core"
	"stsyn/internal/protocol"
)

// DefaultMaxStates bounds the state spaces the explicit engine accepts.
// Larger protocols should use the symbolic engine.
const DefaultMaxStates = 1 << 24

// AutoMaxStates is the largest state space the engine "auto" rule gives to
// the explicit engine; larger ones, and ones whose size overflows, go to
// the symbolic engine.
const AutoMaxStates = 1 << 20

// AutoSelects reports whether engine "auto" resolves to the explicit
// engine for sp (cli.ResolveEngine, the one engine-name rule, asks it).
func AutoSelects(sp *protocol.Spec) bool {
	n, ok := sp.NumStates()
	return ok && n <= AutoMaxStates
}

// group is the engine-side representation of a transition group. Because
// w ⊆ r, every transition in a group applies the same index delta; the group
// is { (s, s+delta) : s matches the readable valuation }.
type group struct {
	pg       protocol.Group
	id       int
	srcBase  uint64   // index contribution of the readable valuation
	delta    uint64   // wrapping dst-src delta
	sdelta   int64    // delta as a signed bit offset (|dst-src| < n < 2^63)
	unreadW  []uint64 // index weights of the unreadable variables
	unreadD  []int    // domains of the unreadable variables
	srcSet   *Bitset  // lazy cache of the source set
	dstSet   *Bitset  // lazy cache of the destination set (srcSet shifted by delta)
	srcCount uint64   // |srcSet|, set when srcSet is materialized
}

func (g *group) Proc() int                     { return g.pg.Proc }
func (g *group) ProtocolGroup() protocol.Group { return g.pg }

// Engine is the explicit-state implementation of core.Engine.
type Engine struct {
	sp *protocol.Spec
	ix *protocol.Indexer
	n  uint64

	universe *Bitset
	inv      *Bitset

	actions    []core.Group
	candidates []core.Group
	all        []*group             // by dense id
	byKey      map[protocol.Key]int // group key -> dense id

	// Successor index: procTable[p][readKey] lists the groups of process p
	// enabled at any state whose readable valuation has that key.
	procTable  [][][]int // values are dense group ids
	readWeight [][]uint64
	readDom    [][]int

	workers int // image parallelism (0 = GOMAXPROCS)

	// masks pools the source and destination masks of trimCore's delta
	// clusters (two per cluster), reused across calls so the trim
	// allocates no masks in steady state.
	masks []*Bitset

	// labels is SCCGroups' state → component-label array, pooled like
	// masks; nextLabel is the first label no call has used yet.
	labels    []int32
	nextLabel int32

	ctx context.Context // current synthesis context (nil = no cancellation)

	stats  core.Stats
	kstats KernelStats
}

var _ core.Engine = (*Engine)(nil)
var _ core.MutableSets = (*Engine)(nil)

// KernelStats counts the engine's image-kernel activity; exposed through
// the service /metrics endpoint and the JSON result encoding.
type KernelStats struct {
	PreCalls   uint64 // Pre image operations
	PostCalls  uint64 // Post image operations
	GroupTests uint64 // GroupDstInto/GroupFromTo/GroupSrcIntersects calls, plus one per group an SCCGroups call walks
}

// KernelStats returns a snapshot of the kernel counters.
func (e *Engine) KernelStats() KernelStats { return e.kstats }

// SetContext makes long-running operations (SCC enumeration) observe ctx:
// once it is cancelled they stop early and return partial results. The
// caller (core.AddConvergence) re-checks the context and discards them.
func (e *Engine) SetContext(ctx context.Context) { e.ctx = ctx }

// canceled reports whether the current synthesis context is cancelled.
func (e *Engine) canceled() bool { return e.ctx != nil && e.ctx.Err() != nil }

// New builds an explicit engine for sp. maxStates of 0 uses
// DefaultMaxStates.
func New(sp *protocol.Spec, maxStates uint64) (*Engine, error) {
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	if maxStates == 0 {
		maxStates = DefaultMaxStates
	}
	n, ok := sp.NumStates()
	if !ok || n > maxStates {
		return nil, fmt.Errorf("explicit: state space of %s too large (limit %d)", sp.Name, maxStates)
	}
	e := &Engine{sp: sp, ix: protocol.NewIndexer(sp), n: n}
	e.universe = NewBitset(n).Not()
	e.byKey = make(map[protocol.Key]int)

	e.inv = NewBitset(n)
	s := make(protocol.State, len(sp.Vars))
	for i := uint64(0); i < n; i++ {
		e.ix.Decode(i, s)
		if sp.Invariant.EvalBool(s) {
			e.inv.Set(i)
		}
	}

	// Per-process read-key machinery.
	e.procTable = make([][][]int, len(sp.Procs))
	e.readWeight = make([][]uint64, len(sp.Procs))
	e.readDom = make([][]int, len(sp.Procs))
	for pi := range sp.Procs {
		p := &sp.Procs[pi]
		doms := make([]int, len(p.Reads))
		for i, id := range p.Reads {
			doms[i] = sp.Vars[id].Dom
		}
		w := make([]uint64, len(p.Reads))
		acc := uint64(1)
		for i := len(doms) - 1; i >= 0; i-- {
			w[i] = acc
			acc *= uint64(doms[i])
		}
		e.readDom[pi] = doms
		e.readWeight[pi] = w
		e.procTable[pi] = make([][]int, acc)
	}

	for pi := range sp.Procs {
		for _, pg := range sp.ActionGroups(pi) {
			e.actions = append(e.actions, e.intern(pg))
		}
		for _, pg := range sp.CandidateGroups(pi) {
			e.candidates = append(e.candidates, e.intern(pg))
		}
	}
	return e, nil
}

// intern registers a protocol group, deduplicating by key, and indexes it
// in the successor table.
func (e *Engine) intern(pg protocol.Group) *group {
	if id, ok := e.byKey[pg.Key()]; ok {
		return e.all[id]
	}
	p := &e.sp.Procs[pg.Proc]
	g := &group{pg: pg, id: len(e.all)}

	readSet := make(map[int]bool, len(p.Reads))
	var key uint64
	for i, id := range p.Reads {
		readSet[id] = true
		g.srcBase += uint64(pg.ReadVals[i]) * e.varWeight(id)
		key += uint64(pg.ReadVals[i]) * e.readWeight[pg.Proc][i]
	}
	for wi, id := range p.Writes {
		old := pg.ReadVals[readIndex(p.Reads, id)]
		g.delta += uint64(int64(pg.WriteVals[wi]-old)) * e.varWeight(id)
	}
	// delta is the true dst−src difference modulo 2^64; since every source
	// and destination is a valid index below n < 2^63, the two's-complement
	// reading recovers the signed bit offset of the shift kernels.
	g.sdelta = int64(g.delta)
	for id := range e.sp.Vars {
		if !readSet[id] {
			g.unreadW = append(g.unreadW, e.varWeight(id))
			g.unreadD = append(g.unreadD, e.sp.Vars[id].Dom)
		}
	}
	e.byKey[pg.Key()] = g.id
	e.all = append(e.all, g)
	e.procTable[pg.Proc][key] = append(e.procTable[pg.Proc][key], g.id)
	return g
}

func (e *Engine) varWeight(id int) uint64 {
	// Indexer exposes weights only via WithValue; recompute directly.
	w := uint64(1)
	for j := len(e.sp.Vars) - 1; j > id; j-- {
		w *= uint64(e.sp.Vars[j].Dom)
	}
	return w
}

func readIndex(reads []int, id int) int {
	for i, x := range reads {
		if x == id {
			return i
		}
	}
	panic("explicit: write variable not in read set")
}

// forEachSrc enumerates the source indices of g.
func (e *Engine) forEachSrc(g *group, f func(src uint64) bool) {
	if len(g.unreadD) == 0 {
		f(g.srcBase)
		return
	}
	// A fixed buffer keeps the common case allocation-free: groups leave
	// few variables unread.
	var buf [8]int
	counters := buf[:]
	if len(g.unreadD) > len(buf) {
		counters = make([]int, len(g.unreadD))
	}
	counters = counters[:len(g.unreadD)]
	src := g.srcBase
	for {
		if !f(src) {
			return
		}
		i := len(counters) - 1
		for ; i >= 0; i-- {
			counters[i]++
			src += g.unreadW[i]
			if counters[i] < g.unreadD[i] {
				break
			}
			src -= uint64(g.unreadD[i]) * g.unreadW[i]
			counters[i] = 0
		}
		if i < 0 {
			return
		}
	}
}

// sources returns (and caches) the bitset of g's transition sources.
func (e *Engine) sources(g *group) *Bitset {
	if g.srcSet == nil {
		b := NewBitset(e.n)
		n := uint64(0)
		e.forEachSrc(g, func(src uint64) bool { b.Set(src); n++; return true })
		g.srcCount = n
		g.srcSet = b
	}
	return g.srcSet
}

// sparse reports whether g's source set is small enough that the per-state
// scan beats a full word pass over the universe. A state test costs ~2.5×
// a word operation, so the scan wins when |src| is below ~0.4 words; the
// threshold of a third keeps a safety margin. Groups read most variables on
// protocols with rich localities (e.g. the two-ring), making their source
// sets tiny relative to the universe, where a word pass per group would
// regress. The SCC trim needs no such choice: it pays one word pass per
// delta cluster and round, shared by all the groups of that delta (see
// deltaClusters).
func (e *Engine) sparse(g *group) bool {
	e.sources(g)
	return g.srcCount*3 < uint64(len(g.srcSet.words))
}

// dests returns (and caches) shift(src(g), Δg): the bitset of g's
// transition destinations, used as the mask of the fused Post kernel.
func (e *Engine) dests(g *group) *Bitset {
	if g.dstSet == nil {
		g.dstSet = NewBitset(e.n).ShiftInto(e.sources(g), g.sdelta)
	}
	return g.dstSet
}

// --- core.Engine implementation -----------------------------------------

func (e *Engine) Spec() *protocol.Spec { return e.sp }
func (e *Engine) Universe() core.Set   { return e.universe }
func (e *Engine) Empty() core.Set      { return NewBitset(e.n) }
func (e *Engine) Invariant() core.Set  { return e.inv }

func (e *Engine) Or(a, b core.Set) core.Set   { return a.(*Bitset).Or(b.(*Bitset)) }
func (e *Engine) And(a, b core.Set) core.Set  { return a.(*Bitset).And(b.(*Bitset)) }
func (e *Engine) Diff(a, b core.Set) core.Set { return a.(*Bitset).Diff(b.(*Bitset)) }
func (e *Engine) Not(a core.Set) core.Set     { return a.(*Bitset).Not() }
func (e *Engine) IsEmpty(a core.Set) bool     { return a.(*Bitset).IsEmpty() }
func (e *Engine) Equal(a, b core.Set) bool    { return a.(*Bitset).Equal(b.(*Bitset)) }
func (e *Engine) States(a core.Set) float64   { return float64(a.(*Bitset).Count()) }
func (e *Engine) SetSize(a core.Set) int      { return int(a.(*Bitset).Count()) }

func (e *Engine) ActionGroups() []core.Group    { return append([]core.Group(nil), e.actions...) }
func (e *Engine) CandidateGroups() []core.Group { return append([]core.Group(nil), e.candidates...) }

func (e *Engine) GroupSrc(g core.Group) core.Set {
	return e.sources(g.(*group)).Clone()
}

// The image operations below exploit the structural fact recorded in each
// group: a transition group is a uniform index translation dst = src + Δ,
// so its image under a set is one word-level shift —
//
//	Post(g, X) = shift(X ∩ src(g), Δg) = shift(X, Δg) ∩ dst(g)
//	Pre(g, X)  = shift(X, −Δg) ∩ src(g)
//
// (the second Post form holds because a translation is injective, and it is
// the one implemented: with dst(g) cached, both images reduce to the fused
// single-pass primitive acc |= shift(X, ±Δ) ∩ mask). The existence tests
// (GroupDstInto and friends) are early-exiting shift-and-intersect scans
// that materialize nothing at all. Groups whose source set is tiny relative
// to the universe (see sparse) instead keep the per-state scan, which beats
// a full word pass there; the choice is per group and bit-for-bit neutral.

func (e *Engine) GroupDstInto(g core.Group, X core.Set) bool {
	gg, x := g.(*group), X.(*Bitset)
	e.kstats.GroupTests++
	// Dense fast path: probe the group's first transition before paying for
	// the word scan (the common case during recovery is a hit).
	if x.Get(gg.srcBase + gg.delta) {
		return true
	}
	if e.sparse(gg) {
		return e.groupDstIntoScan(gg, x)
	}
	// ∃ src ∈ src(g): src+Δ ∈ X  ⇔  src(g) ∩ shift(X, −Δ) ≠ ∅.
	return x.ShiftIntersects(-gg.sdelta, gg.srcSet, nil)
}

func (e *Engine) GroupFromTo(g core.Group, from, to core.Set) bool {
	gg, f, t := g.(*group), from.(*Bitset), to.(*Bitset)
	e.kstats.GroupTests++
	// Dense fast path: probe the group's first transition.
	if f.Get(gg.srcBase) && t.Get(gg.srcBase+gg.delta) {
		return true
	}
	if e.sparse(gg) {
		return e.groupFromToScan(gg, f, t)
	}
	// ∃ src ∈ from ∩ src(g): src+Δ ∈ to  ⇔  shift(to, −Δ) ∩ src(g) ∩ from ≠ ∅.
	return t.ShiftIntersects(-gg.sdelta, gg.srcSet, f)
}

// SCCGroups answers each group in whichever of two ways costs less for
// it. The per-pair probes cost up to one word pass over the universe per
// component; the labelled walk costs one state test per source of the
// group, a state test costing about 2.5 word operations (see sparse). The
// walk writes every component's label into the pooled label array once
// per call; a transition s → s+Δ lies inside a component exactly when
// both endpoints carry the same label of this call. It starts at the
// group's first transition, as GroupFromTo does, and stops once the group
// has hit every component. With a single component there is nothing to
// label: its pairwise probe never costs more than the walk.
func (e *Engine) SCCGroups(gs []core.Group, sccs []core.Set) [][]int {
	if len(sccs) <= 1 {
		return core.PairwiseSCCGroups(e, gs, sccs)
	}
	out := make([][]int, len(sccs))
	var lab []int32
	var base int32
	for gi, g := range gs {
		gg := g.(*group)
		src := e.sources(gg)
		if 2*uint64(len(sccs))*uint64(len(src.words)) < 5*gg.srcCount {
			for i, scc := range sccs {
				if e.GroupFromTo(g, scc, scc) {
					out[i] = append(out[i], gi)
				}
			}
			continue
		}
		if lab == nil {
			lab, base = e.labelSCCs(sccs)
		}
		e.kstats.GroupTests++
		hits := 0
		e.forEachSrc(gg, func(s uint64) bool {
			if l := lab[s]; l >= base && lab[s+gg.delta] == l {
				// Groups are walked in ascending order, so a component's
				// list already ends in gi when this group hit it before.
				i := l - base
				if n := len(out[i]); n == 0 || out[i][n-1] != gi {
					out[i] = append(out[i], gi)
					hits++
				}
			}
			return hits < len(sccs)
		})
	}
	return out
}

// labelSCCs labels every state of sccs[i] with base+i in the pooled label
// array and returns the array and base. Each call takes labels above every
// earlier call's, so entries below base are stale and never need clearing:
// the array is allocated once per engine, like the trim's cluster masks,
// and zeroed again only when the labels would overflow.
func (e *Engine) labelSCCs(sccs []core.Set) ([]int32, int32) {
	if e.labels == nil || e.nextLabel > math.MaxInt32-int32(len(sccs)) {
		e.labels = make([]int32, e.n)
		e.nextLabel = 1
	}
	base := e.nextLabel
	e.nextLabel += int32(len(sccs))
	for i, scc := range sccs {
		l := base + int32(i)
		scc.(*Bitset).ForEach(func(s uint64) bool { e.labels[s] = l; return true })
	}
	return e.labels, base
}

func (e *Engine) Pre(gs []core.Group, X core.Set) core.Set {
	x := X.(*Bitset)
	e.kstats.PreCalls++
	return e.scanGroups(gs, e.fillSources, func(gg *group, acc *Bitset) {
		if e.sparse(gg) {
			e.preScan(gg, x, acc)
			return
		}
		acc.OrShiftMasked(x, -gg.sdelta, gg.srcSet)
	})
}

func (e *Engine) Post(gs []core.Group, X core.Set) core.Set {
	x := X.(*Bitset)
	e.kstats.PostCalls++
	return e.scanGroups(gs, e.fillDests, func(gg *group, acc *Bitset) {
		if e.sparse(gg) {
			e.postScan(gg, x, acc)
			return
		}
		acc.OrShiftMasked(x, gg.sdelta, e.dests(gg))
	})
}

func (e *Engine) EnabledSources(gs []core.Group) core.Set {
	return e.scanGroups(gs, e.fillSources, func(gg *group, acc *Bitset) {
		acc.OrInPlace(e.sources(gg))
	})
}

// fillSources and fillDests fill the lazy caches the Pre/EnabledSources
// and Post kernels read: the source set, plus the destination set of the
// groups Post shifts word by word.
func (e *Engine) fillSources(gg *group) { e.sources(gg) }

func (e *Engine) fillDests(gg *group) {
	if !e.sparse(gg) {
		e.dests(gg)
	}
}

// --- Per-state scans (the sparse-group path) ----------------------------
//
// One state test per source of the group: the image and probe path of the
// groups sparse selects, where it beats a word pass over the universe.

func (e *Engine) preScan(gg *group, x, acc *Bitset) {
	e.forEachSrc(gg, func(src uint64) bool {
		if x.Get(src + gg.delta) {
			acc.Set(src)
		}
		return true
	})
}

func (e *Engine) postScan(gg *group, x, acc *Bitset) {
	e.forEachSrc(gg, func(src uint64) bool {
		if x.Get(src) {
			acc.Set(src + gg.delta)
		}
		return true
	})
}

func (e *Engine) groupDstIntoScan(gg *group, x *Bitset) bool {
	found := false
	e.forEachSrc(gg, func(src uint64) bool {
		if x.Get(src + gg.delta) {
			found = true
			return false
		}
		return true
	})
	return found
}

func (e *Engine) groupFromToScan(gg *group, f, t *Bitset) bool {
	found := false
	e.forEachSrc(gg, func(src uint64) bool {
		if f.Get(src) && t.Get(src+gg.delta) {
			found = true
			return false
		}
		return true
	})
	return found
}

// --- Optional core capabilities ------------------------------------------

// GroupSrcIntersects reports whether g's source set intersects X, using the
// cached source set without cloning it.
func (e *Engine) GroupSrcIntersects(g core.Group, X core.Set) bool {
	gg := g.(*group)
	e.kstats.GroupTests++
	return e.sources(gg).Intersects(X.(*Bitset))
}

// Dup, OrInto, DiffInto and OrSrcInto implement core.MutableSets: the rank
// fixpoint and the recovery bookkeeping mutate sets they own instead of
// allocating a fresh bitset per set operation.

func (e *Engine) Dup(a core.Set) core.Set { return a.(*Bitset).Clone() }

func (e *Engine) OrInto(dst, src core.Set) { dst.(*Bitset).OrInPlace(src.(*Bitset)) }

func (e *Engine) DiffInto(dst, src core.Set) {
	d := dst.(*Bitset)
	d.AndNotInto(d, src.(*Bitset))
}

func (e *Engine) OrSrcInto(dst core.Set, g core.Group) {
	dst.(*Bitset).OrInPlace(e.sources(g.(*group)))
}

func (e *Engine) PickState(a core.Set) (protocol.State, bool) {
	idx, ok := a.(*Bitset).First()
	if !ok {
		return nil, false
	}
	s := make(protocol.State, len(e.sp.Vars))
	e.ix.Decode(idx, s)
	return s, true
}

func (e *Engine) Singleton(s protocol.State) core.Set {
	b := NewBitset(e.n)
	b.Set(e.ix.Index(s))
	return b
}

func (e *Engine) ProgramSize(gs []core.Group) int {
	total := 0
	for _, g := range gs {
		n := 1
		for _, d := range g.(*group).unreadD {
			n *= d
		}
		total += n
	}
	return total
}

func (e *Engine) Stats() *core.Stats { return &e.stats }

// readKey computes the successor-table key of state idx for process pi.
func (e *Engine) readKey(idx uint64, pi int) uint64 {
	var key uint64
	for i, id := range e.sp.Procs[pi].Reads {
		key += uint64(e.ix.Value(idx, id)) * e.readWeight[pi][i]
	}
	return key
}

// successors appends to buf the targets of transitions from idx under the
// groups marked in inSet, restricted to states in within. It also reports
// whether idx has a self-loop.
func (e *Engine) successors(idx uint64, inSet []bool, within *Bitset, buf []uint64) ([]uint64, bool) {
	self := false
	for pi := range e.sp.Procs {
		for _, gid := range e.procTable[pi][e.readKey(idx, pi)] {
			if !inSet[gid] {
				continue
			}
			dst := idx + e.all[gid].delta
			if dst == idx {
				self = true
			}
			if within.Get(dst) {
				buf = append(buf, dst)
			}
		}
	}
	return buf, self
}
