package symbolic

import (
	"time"

	"stsyn/internal/bdd"
	"stsyn/internal/core"
)

// sccCtx runs cycle detection inside a scratch manager separate from the
// persistent store: the trim and enumeration fixpoints generate enormous
// amounts of garbage, and keeping it off the persistent manager makes
// reclamation trivial — a scratch manager is dropped wholesale, the
// coarsest possible collection. The engine retains one scratch manager
// across calls (scratchMgr: warm operation cache, copy memo) and drops it
// at a small node-count watermark. Inputs are migrated in and the (small)
// resulting SCC predicates are migrated back; the persistent store keeps
// only those results and the engine's own predicates.
type sccCtx struct {
	e     *Engine
	m     *bdd.Manager
	src   []bdd.Ref           // per cluster: union of the members' source states
	wcube []bdd.Ref           // per cluster: the members' written-values literal cube
	wvars []bdd.Ref           // per cluster: positive cube of the written bit levels
	memo  map[bdd.Ref]bdd.Ref // persistent → scratch copy memo for this call
	qbuf  []bdd.Ref           // reused term buffer for balanced union trees
	pbuf  []bdd.Ref           // second term buffer (trim's image direction)
}

// scratchMgr is the cycle-detection scratch manager an engine retains
// across CyclicSCCs calls. Reuse keeps the operation cache warm across
// the many short calls a synthesis run makes, and the copy memo turns the
// per-call migration of group cubes and the recurring `within` set into
// map lookups. The memo's keys are persistent Refs, which are never
// reused, so it stays valid for the scratch manager's lifetime; prev
// snapshots the counters already folded into the engine's scratch totals
// so reuse never double-counts.
type scratchMgr struct {
	m    *bdd.Manager
	memo map[bdd.Ref]bdd.Ref // persistent Ref → scratch Ref
	prev bdd.Stats           // counters folded so far
}

// scratchRebuildNodes bounds the retained scratch store: past this many
// nodes the manager is dropped wholesale and rebuilt fresh.
const scratchRebuildNodes = 1 << 16

// ensureScratch returns the retained scratch manager, rebuilding it when
// the store outgrew the watermark.
func (e *Engine) ensureScratch() *scratchMgr {
	if s := e.sccScratch; s != nil && s.m.Size() > scratchRebuildNodes {
		e.dropScratch()
	}
	if e.sccScratch == nil {
		e.sccScratch = &scratchMgr{
			m:    bdd.New(e.m.NumVars()),
			memo: make(map[bdd.Ref]bdd.Ref),
		}
	}
	return e.sccScratch
}

// dropScratch folds the retained scratch manager's outstanding counters
// into the engine totals and releases it wholesale: the engine's one
// collection.
func (e *Engine) dropScratch() {
	s := e.sccScratch
	if s == nil {
		return
	}
	st := s.m.Stats()
	e.scratch.hits += st.CacheHits - s.prev.CacheHits
	e.scratch.misses += st.CacheMisses - s.prev.CacheMisses
	e.scratch.evicts += st.CacheEvictions - s.prev.CacheEvictions
	e.scratch.dropped += uint64(st.LiveNodes)
	e.scratch.drops++
	if st.LiveNodes > e.scratch.peak {
		e.scratch.peak = st.LiveNodes
	}
	e.sccScratch = nil
}

// settleScratch folds a finished call's counters of the retained manager
// into the engine totals, by delta since the previous settle.
func (e *Engine) settleScratch(ctx *sccCtx) {
	s := e.sccScratch
	if s == nil || s.m != ctx.m {
		return
	}
	st := s.m.Stats()
	e.scratch.hits += st.CacheHits - s.prev.CacheHits
	e.scratch.misses += st.CacheMisses - s.prev.CacheMisses
	e.scratch.evicts += st.CacheEvictions - s.prev.CacheEvictions
	if st.LiveNodes > e.scratch.peak {
		e.scratch.peak = st.LiveNodes
	}
	s.prev = st
}

// newSCCCtx builds a scratch context over the given groups on the
// engine's retained scratch manager, whose memo makes migrating previously
// seen persistent refs (the group cubes, the recurring `within` set) a map
// lookup.
//
// The context clusters the groups by write cube. The cube fixes
// the written bits (and with them the written bit levels), so over a
// cluster whose members' sources union to src
//
//	pre(x)   = src ∧ Restrict(x, wcube)
//	image(x) = (∃wvars. x ∧ src) ∧ wcube
//
// — the union of the members' images, by distributivity. Every fixpoint
// below then runs per cluster: coloring-13's 702 action and candidate
// groups share 39 write cubes.
func (e *Engine) newSCCCtx(gs []core.Group) *sccCtx {
	s := e.ensureScratch()
	ctx := &sccCtx{e: e, m: s.m, memo: s.memo}
	ctx.addClustered(gs)
	return ctx
}

// addClustered adds gs to the context clustered by write cube.
func (c *sccCtx) addClustered(gs []core.Group) {
	byCube := make(map[bdd.Ref]int)
	for _, g := range gs {
		gg := g.(*group)
		if k, ok := byCube[gg.writeCube]; ok {
			c.src[k] = c.union(c.src[k], c.copyIn(gg.src, c.memo))
			continue
		}
		byCube[gg.writeCube] = len(c.src)
		c.src = append(c.src, c.copyIn(gg.src, c.memo))
		c.wcube = append(c.wcube, c.copyIn(gg.writeCube, c.memo))
		c.wvars = append(c.wvars, c.copyIn(gg.writeVars, c.memo))
	}
}

// union returns f ∨ g on the scratch manager.
func (c *sccCtx) union(f, g bdd.Ref) bdd.Ref { return c.m.Or(f, g) }

// copyIn migrates a persistent-manager BDD into the scratch manager.
func (c *sccCtx) copyIn(f bdd.Ref, memo map[bdd.Ref]bdd.Ref) bdd.Ref {
	return c.m.CopyFrom(c.e.m, f, memo)
}

// copyBack migrates a scratch BDD to the persistent manager.
func (c *sccCtx) copyBack(f bdd.Ref, memo map[bdd.Ref]bdd.Ref) bdd.Ref {
	return c.e.m.CopyFrom(c.m, f, memo)
}

// CyclicSCCs returns the non-trivial strongly connected components of the
// union of gs restricted to states in within.
//
// It first trims `within` to its cycle core — the greatest set in which
// every state lies on an infinite forward and backward path (states not in
// the core cannot lie on any cycle) — and then enumerates the core's SCCs,
// with the skeleton-based symbolic algorithm of Gentilini, Piazza and
// Policriti which the paper's STSyn implementation uses. Trimming first is
// essential: without it the enumeration would visit one trivial SCC per
// acyclic state.
//
// The returned components live on the persistent manager and stay valid
// for the engine's lifetime.
func (e *Engine) CyclicSCCs(gs []core.Group, within core.Set) []core.Set {
	t0 := time.Now() //lint:ignore determinism wall-clock SCC stats only; synthesis results never read them
	defer func() {
		e.stats.SCCTime += time.Since(t0) //lint:ignore determinism wall-clock SCC stats only; synthesis results never read them
		e.stats.SCCCalls++
	}()

	ctx := e.newSCCCtx(gs)
	defer e.settleScratch(ctx)
	c := ctx.copyIn(within.(bdd.Ref), ctx.memo)

	// Trim to the cycle core. Empty ⇔ the graph restricted to within is
	// acyclic — the common case while the heuristic is doing its job. Every
	// fixpoint inside is a cancellation point: one iteration is a full
	// symbolic image, so checking the context per iteration is cheap, and
	// on cancellation partial results are returned for the caller to
	// discard.
	c = ctx.trim(c)
	if c == bdd.False || e.canceled() {
		return nil
	}

	var out []core.Set
	backMemo := make(map[bdd.Ref]bdd.Ref)
	ctx.skeletonEnum(c, func(scc bdd.Ref) {
		if !ctx.hasInternalTransition(scc) {
			return
		}
		back := ctx.copyBack(scc, backMemo)
		out = append(out, back)
		e.stats.SCCCount++
		e.stats.SCCSizeTotal += e.m.DagSize(back)
	})
	return out
}

// skelTask is one subproblem of the skeleton decomposition: enumerate the
// SCCs of the subgraph induced by v, optionally spined by (s, n).
type skelTask struct{ v, s, n bdd.Ref }

// skeletonEnum enumerates the SCCs of the subgraph induced by v0 with the
// Gentilini-Piazza-Policriti skeleton algorithm (iterative; spine-sets
// bound the number of symbolic steps, correctness needs only single-state
// seeds).
func (c *sccCtx) skeletonEnum(v0 bdd.Ref, emit func(bdd.Ref)) {
	stack := []skelTask{{v: v0, s: bdd.False, n: bdd.False}}
	for len(stack) > 0 {
		if c.e.canceled() {
			return
		}
		t := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if t.v == bdd.False {
			continue
		}
		n, s := t.n, t.s
		if n == bdd.False {
			n = c.pickSingleton(t.v)
			s = n
		}
		fw, s2, n2 := c.skelForward(t.v, n)
		// SCC(n) = states of FW that reach n: grow backwards inside FW.
		// The preimage distributes over union, so only the newly added
		// frontier is fed back in.
		scc := n
		for front := n; ; {
			grow := c.m.Diff(c.m.And(c.pre(front), fw), scc)
			if grow == bdd.False {
				break
			}
			scc = c.m.Or(scc, grow)
			front = grow
		}
		emit(scc)
		// Remainder outside the forward set, spined by the predecessor of
		// the SCC along the old spine.
		s1 := c.m.Diff(s, scc)
		n1 := c.m.And(c.pre(c.m.And(scc, s)), s1)
		if n1 != bdd.False {
			n1 = c.pickSingleton(n1)
		} else {
			s1 = bdd.False
		}
		stack = append(stack, skelTask{v: c.m.Diff(t.v, fw), s: s1, n: n1})
		// Remainder inside the forward set, spined by the skeleton suffix.
		s2 = c.m.Diff(s2, scc)
		n2 = c.m.Diff(n2, scc)
		if n2 == bdd.False {
			s2 = bdd.False
		}
		stack = append(stack, skelTask{v: c.m.Diff(fw, scc), s: s2, n: n2})
	}
}

// pre returns the states with a transition into x; post the states
// reachable from x in one step. Both batch the per-cluster terms through a
// balanced union tree (orTree): canonicity makes the result identical to a
// linear fold, but the operands stay comparably sized instead of one
// accumulator growing with every Or.
func (c *sccCtx) pre(x bdd.Ref) bdd.Ref {
	terms := c.qbuf[:0]
	for i := range c.src {
		if q := c.m.And(c.src[i], c.m.Restrict(x, c.wcube[i])); q != bdd.False {
			terms = append(terms, q)
		}
	}
	c.qbuf = terms[:0]
	return orTree(c.m, terms)
}

// image is post restricted to one cluster: the successors of x under
// cluster i.
func (c *sccCtx) image(i int, x bdd.Ref) bdd.Ref {
	srcs := c.m.And(x, c.src[i])
	if srcs == bdd.False {
		return bdd.False
	}
	return c.m.And(c.m.Exists(srcs, c.wvars[i]), c.wcube[i])
}

// trim shrinks v to its cycle core: the greatest subset in which every
// state has both a successor and a predecessor inside the subset (states
// outside the core cannot lie on any cycle). The forward-only pass runs
// first — it is cheaper per iteration and empties the common acyclic case
// — then both directions interleave to convergence.
//
// The trim exploits monotonicity twice. The core only shrinks, so a
// cluster with no internal transition in the current core — no source
// state in it whose successor is also in it — can never regain one and is
// dropped from every later iteration; that one liveness condition covers
// both image directions.
func (c *sccCtx) trim(v bdd.Ref) bdd.Ref {
	act := make([]int, len(c.src))
	for i := range act {
		act[i] = i
	}
	// Forward pass: keep states with a successor inside v. The per-cluster
	// preimage term q_i = src_i ∧ Restrict(v, wcube_i) is already what
	// pre(v) computes; empty q_i means no transition of cluster i lands in
	// v at all, and since v only shrinks, never will again — the cluster
	// is retired for free, with no extra operations when live.
	for {
		terms := c.qbuf[:0]
		na := act[:0]
		for _, i := range act {
			q := c.m.And(c.src[i], c.m.Restrict(v, c.wcube[i]))
			if q == bdd.False {
				continue
			}
			na = append(na, i)
			terms = append(terms, q)
		}
		act = na
		c.qbuf = terms[:0]
		next := c.m.And(v, orTree(c.m, terms))
		if next == v || c.e.canceled() {
			break
		}
		v = next
		if v == bdd.False {
			return v
		}
	}
	if c.e.canceled() {
		return v
	}
	// Both directions to convergence. Retiring on empty q_i is sound for
	// the image union too: no transition of cluster i lands in v, so its
	// image contributes nothing inside v, and the result is intersected
	// with v before use.
	for {
		pres, posts := c.qbuf[:0], c.pbuf[:0]
		na := act[:0]
		for _, i := range act {
			q := c.m.And(c.src[i], c.m.Restrict(v, c.wcube[i]))
			if q == bdd.False {
				continue
			}
			na = append(na, i)
			pres = append(pres, q)
			if p := c.image(i, v); p != bdd.False {
				posts = append(posts, p)
			}
		}
		act = na
		c.qbuf, c.pbuf = pres[:0], posts[:0]
		next := c.m.And(v, c.m.And(orTree(c.m, pres), orTree(c.m, posts)))
		if next == v || c.e.canceled() {
			break
		}
		v = next
		if v == bdd.False {
			return v
		}
	}
	return v
}

func (c *sccCtx) post(x bdd.Ref) bdd.Ref {
	terms := c.qbuf[:0]
	for i := range c.src {
		if q := c.image(i, x); q != bdd.False {
			terms = append(terms, q)
		}
	}
	c.qbuf = terms[:0]
	return orTree(c.m, terms)
}

// skelForward computes the forward set of n within v, together with a
// skeleton: a path from n to a state n2 in the last BFS level.
func (c *sccCtx) skelForward(v, n bdd.Ref) (fw, s2, n2 bdd.Ref) {
	levels := []bdd.Ref{n}
	fw = n
	frontier := n
	for {
		next := c.m.Diff(c.m.And(c.post(frontier), v), fw)
		if next == bdd.False || c.e.canceled() {
			break
		}
		levels = append(levels, next)
		fw = c.m.Or(fw, next)
		frontier = next
	}
	n2 = c.pickSingleton(levels[len(levels)-1])
	s2 = n2
	cur := n2
	for i := len(levels) - 2; i >= 0; i-- {
		cur = c.pickSingleton(c.m.And(c.pre(cur), levels[i]))
		s2 = c.m.Or(s2, cur)
	}
	return fw, s2, n2
}

// hasInternalTransition reports whether some cluster has a transition with
// both endpoints in scc (i.e. the component contains a cycle).
func (c *sccCtx) hasInternalTransition(scc bdd.Ref) bool {
	for i := range c.src {
		pre := c.m.And(c.src[i], c.m.Restrict(scc, c.wcube[i]))
		if c.m.And(scc, pre) != bdd.False {
			return true
		}
	}
	return false
}

// pickSingleton extracts one state of f as a full literal cube. PickCube
// on a canonical ROBDD is structure-determined, so the chosen state — and
// with it the whole skeleton decomposition — is identical in every scratch
// manager holding the same function.
func (c *sccCtx) pickSingleton(f bdd.Ref) bdd.Ref {
	cube := c.m.PickCube(f)
	if cube == nil {
		panic("symbolic: pickSingleton on empty set")
	}
	l := c.e.l
	lits := make([]bdd.Literal, 0, l.total)
	for id := range c.e.sp.Vars {
		for b := 0; b < l.bitsOf[id]; b++ {
			lvl := l.curLevel(id, b)
			lits = append(lits, bdd.Literal{Var: lvl, Val: cube[lvl] == 1})
		}
	}
	return c.m.LiteralCube(lits)
}
