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
	key      protocol.Key
	id       int
	srcBase  uint64   // index contribution of the readable valuation
	delta    uint64   // wrapping dst-src delta
	sdelta   int64    // delta as a signed bit offset (|dst-src| < n < 2^63)
	unreadW  []uint64 // index weights of the unreadable variables, shared by the process's groups
	unreadD  []int    // domains of the unreadable variables, likewise shared
	srcCount uint64   // number of sources: the product of unreadD
	srcSet   *Bitset  // lazy cache of the source set; never built for a sparse group
}

func (g *group) Proc() int                     { return g.pg.Proc }
func (g *group) ProtocolGroup() protocol.Group { return g.pg }
func (g *group) Key() protocol.Key             { return g.key }

// Engine is the explicit-state implementation of core.Engine.
type Engine struct {
	sp *protocol.Spec
	ix *protocol.Indexer
	n  uint64

	nwords   uint64 // words of a bitset over the universe
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

	// The unreadable variables of each process: their index weights and
	// domains, in ascending variable order, and the product of the domains.
	// Every group of the process shares these slices.
	unreadW  [][]uint64
	unreadD  [][]int
	srcCount []uint64

	// masks pools the source and destination masks of trimCore's delta
	// clusters (two per cluster), reused across calls so the trim
	// allocates no masks in steady state.
	masks []*Bitset

	// trimWords pools the word lists of trimCore's clusters, one run of
	// word indices per cluster and direction, grown to the largest call.
	trimWords []uint32

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
	e.nwords = uint64(len(e.universe.words))

	e.inv = NewBitset(n)
	// Step the state vector like an odometer, last variable fastest, so s
	// always holds the valuation of index i without decoding it.
	s := make(protocol.State, len(sp.Vars))
	for i := uint64(0); i < n; i++ {
		if sp.Invariant.EvalBool(s) {
			e.inv.Set(i)
		}
		for j := len(s) - 1; j >= 0; j-- {
			if s[j]++; s[j] < sp.Vars[j].Dom {
				break
			}
			s[j] = 0
		}
	}

	// Per-process read-key and unread-variable machinery.
	np := len(sp.Procs)
	e.procTable = make([][][]int, np)
	e.readWeight = make([][]uint64, np)
	e.readDom = make([][]int, np)
	e.unreadW = make([][]uint64, np)
	e.unreadD = make([][]int, np)
	e.srcCount = make([]uint64, np)
	read := make([]bool, len(sp.Vars))
	groups := 0
	for pi := range sp.Procs {
		p := &sp.Procs[pi]
		doms := make([]int, len(p.Reads))
		for i, id := range p.Reads {
			doms[i] = sp.Vars[id].Dom
			read[id] = true
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

		count := uint64(1)
		for id, v := range sp.Vars {
			if read[id] {
				read[id] = false
				continue
			}
			e.unreadW[pi] = append(e.unreadW[pi], e.ix.Weight(id))
			e.unreadD[pi] = append(e.unreadD[pi], v.Dom)
			count *= uint64(v.Dom)
		}
		e.srcCount[pi] = count
		// Every group of the process has one of acc readable and wprod
		// written valuations: size the key index for all of them.
		wprod := 1
		for _, id := range p.Writes {
			wprod *= sp.Vars[id].Dom
		}
		groups += int(acc) * wprod
	}
	e.byKey = make(map[protocol.Key]int, groups)
	e.all = make([]*group, 0, groups)

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
	key := pg.Key()
	if id, ok := e.byKey[key]; ok {
		return e.all[id]
	}
	pi := pg.Proc
	p := &e.sp.Procs[pi]
	g := &group{
		pg: pg, key: key, id: len(e.all),
		unreadW: e.unreadW[pi], unreadD: e.unreadD[pi], srcCount: e.srcCount[pi],
	}

	var readKey uint64
	for i, id := range p.Reads {
		g.srcBase += uint64(pg.ReadVals[i]) * e.ix.Weight(id)
		readKey += uint64(pg.ReadVals[i]) * e.readWeight[pi][i]
	}
	for wi, id := range p.Writes {
		old := pg.ReadVals[readIndex(p.Reads, id)]
		g.delta += uint64(int64(pg.WriteVals[wi]-old)) * e.ix.Weight(id)
	}
	// delta is the true dst−src difference modulo 2^64; since every source
	// and destination is a valid index below n < 2^63, the two's-complement
	// reading recovers the signed bit offset of the shift kernels.
	g.sdelta = int64(g.delta)
	e.byKey[key] = g.id
	e.all = append(e.all, g)
	e.procTable[pi][readKey] = append(e.procTable[pi][readKey], g.id)
	return g
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

// sources returns (and caches) the bitset of g's transition sources. Only
// dense groups cache one: a sparse group's sources are walked with
// forEachSrc wherever they are needed (see orSources).
//
// The fill works on words. It sets srcBase, then takes the unread
// variables in ascending weight: for each, d−1 shift-ORs by its weight w
// add the states where that variable is 1, …, d−1 to those filled so far.
// The set filled so far lies in [srcBase, srcBase+hi], so each pass
// touches only the words of that span, shifted; ascending weight keeps
// the early passes' spans short. Passes over the whole universe instead
// were slower than one Set per source (DESIGN.md, sparse/dense hybrid).
func (e *Engine) sources(g *group) *Bitset {
	if g.srcSet == nil {
		b := NewBitset(e.n)
		b.Set(g.srcBase)
		hi := uint64(0)
		for i := len(g.unreadW) - 1; i >= 0; i-- {
			w := g.unreadW[i]
			for c := 1; c < g.unreadD[i]; c++ {
				b.orShiftSpan(g.srcBase, g.srcBase+hi, w)
				hi += w
			}
		}
		g.srcSet = b
	}
	return g.srcSet
}

// orSources sets acc |= src(g): a word pass over the cached source set
// for a dense group, one state per source for a sparse one.
func (e *Engine) orSources(g *group, acc *Bitset) {
	if e.sparse(g) {
		e.forEachSrc(g, func(src uint64) bool { acc.Set(src); return true })
		return
	}
	acc.OrInPlace(e.sources(g))
}

// sparse reports whether g's source set is small enough that the per-state
// scan beats a full word pass over the universe. A state test costs ~2.5×
// a word operation, so the scan wins when |src| is below ~0.4 words; the
// threshold of a third keeps a safety margin. Groups read most variables on
// protocols with rich localities (e.g. the two-ring), making their source
// sets tiny relative to the universe, where a word pass per group would
// regress. The rule reads only the group's source count, so a sparse group
// never holds a universe-sized bitset: on the two-ring 7 168 sparse groups
// would otherwise pin 16 KiB each.
func (e *Engine) sparse(g *group) bool {
	return g.srcCount*3 < e.nwords
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
	b := NewBitset(e.n)
	e.orSources(g.(*group), b)
	return b
}

// The image operations below exploit the structural fact recorded in each
// group: a transition group is a uniform index translation dst = src + Δ,
// so its preimage of a set is one word-level shift,
//
//	Pre(g, X) = shift(X, −Δg) ∩ src(g),
//
// taken by the fused single-pass primitive acc |= shift(X, −Δ) ∩ src(g).
// The existence tests (GroupDstInto and friends) are early-exiting
// shift-and-intersect scans that materialize nothing at all. Groups whose
// source set is tiny relative to the universe (see sparse) instead keep the
// per-state scan, which beats a full word pass there; the choice is per
// group and bit-for-bit neutral. Every operation runs on the caller's
// goroutine: parallelism lives at the schedule level (core.TrySchedules),
// one engine per schedule.

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
	return x.ShiftIntersects(-gg.sdelta, e.sources(gg), nil)
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
	return t.ShiftIntersects(-gg.sdelta, e.sources(gg), f)
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
		if 2*uint64(len(sccs))*e.nwords < 5*gg.srcCount {
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

// scanGroups folds every group of gs into one fresh accumulator.
func (e *Engine) scanGroups(gs []core.Group, fold func(g *group, acc *Bitset)) *Bitset {
	acc := NewBitset(e.n)
	for _, g := range gs {
		fold(g.(*group), acc)
	}
	return acc
}

func (e *Engine) Pre(gs []core.Group, X core.Set) core.Set {
	x := X.(*Bitset)
	e.kstats.PreCalls++
	return e.scanGroups(gs, func(gg *group, acc *Bitset) {
		if e.sparse(gg) {
			e.preScan(gg, x, acc)
			return
		}
		acc.OrShiftMasked(x, -gg.sdelta, e.sources(gg))
	})
}

// Post walks every group's sources one state at a time. Only diagnostics
// (recovery paths and cycle witnesses) take images forward, so it has no
// word kernel and no group caches a destination set for it.
func (e *Engine) Post(gs []core.Group, X core.Set) core.Set {
	x := X.(*Bitset)
	e.kstats.PostCalls++
	return e.scanGroups(gs, func(gg *group, acc *Bitset) { e.postScan(gg, x, acc) })
}

func (e *Engine) EnabledSources(gs []core.Group) core.Set {
	return e.scanGroups(gs, e.orSources)
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
// cached source set of a dense group without cloning it, and walking a
// sparse group's sources.
func (e *Engine) GroupSrcIntersects(g core.Group, X core.Set) bool {
	gg, x := g.(*group), X.(*Bitset)
	e.kstats.GroupTests++
	if !e.sparse(gg) {
		return e.sources(gg).Intersects(x)
	}
	found := false
	e.forEachSrc(gg, func(src uint64) bool {
		found = x.Get(src)
		return !found
	})
	return found
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
	e.orSources(g.(*group), dst.(*Bitset))
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
		total += int(g.(*group).srcCount)
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

// succCursor walks the successors of state v in the order of the
// successor index: process by process, and within a process in the order
// of its enabled groups, procTable[pi][key]. Start it at pi = -1. It holds
// no pointers, so a stack of cursors costs the garbage collector nothing.
type succCursor struct {
	v    uint64
	key  uint64 // read key of v for process pi
	pi   int32  // the process whose enabled groups are being walked
	j    int32  // next position in procTable[pi][key]
	self bool   // the walk has passed a self-loop of v
}

// nextSucc advances c to the next target of a transition from c.v under
// the groups marked in inSet that lies in within, and returns it; ok is
// false once the walk is done, and c.self then tells whether c.v has a
// self-loop.
func (e *Engine) nextSucc(c *succCursor, inSet []bool, within *Bitset) (dst uint64, ok bool) {
	for {
		if c.pi >= 0 {
			gids := e.procTable[c.pi][c.key]
			for int(c.j) < len(gids) {
				gid := gids[c.j]
				c.j++
				if !inSet[gid] {
					continue
				}
				dst = c.v + e.all[gid].delta
				if dst == c.v {
					c.self = true
				}
				if within.Get(dst) {
					return dst, true
				}
			}
		}
		if c.pi++; int(c.pi) == len(e.sp.Procs) {
			return 0, false
		}
		c.key, c.j = e.readKey(c.v, int(c.pi)), 0
	}
}
