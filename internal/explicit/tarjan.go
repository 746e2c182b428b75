package explicit

import (
	"time"

	"stsyn/internal/core"
)

// CyclicSCCs returns the strongly connected components of the union of gs
// restricted to states in within that contain a cycle: size ≥ 2, or a
// single state with a self-loop. The search space is first trimmed to its
// cycle core with word-level fixpoints, then searched with an iterative
// Tarjan DFS.
func (e *Engine) CyclicSCCs(gs []core.Group, within core.Set) []core.Set {
	t0 := time.Now() //lint:ignore determinism wall-clock SCC stats only; synthesis results never read them
	defer func() {
		e.stats.SCCTime += time.Since(t0) //lint:ignore determinism wall-clock SCC stats only; synthesis results never read them
		e.stats.SCCCalls++
	}()
	cc := e.trimCore(gs, within.(*Bitset))
	if cc == nil || cc.IsEmpty() {
		return nil
	}
	return e.tarjanSCCs(gs, cc)
}

// deltaCluster is the union of the groups of one CyclicSCCs call that share
// the index delta Δ. Every group is the translation {(s, s+Δ)}, so the
// groups' Pre and Post images over a common Δ are one masked shift each:
//
//	Pre(C, X)  = shift(X, −Δ) ∩ src(C)
//	Post(C, X) = shift(X, Δ) ∩ dst(C),   dst(C) = shift(src(C), Δ)
//
// with src(C) the union of the member groups' source sets. Protocols
// carry far fewer distinct deltas than groups (two-ring: 74 for its 7 488
// action and candidate groups), so a trim round costs at most one word
// pass per delta and direction instead of one per group (and the word
// lists of trimCore cut that pass to the words the cluster still
// reaches).
type deltaCluster struct {
	sdelta   int64
	src, dst *Bitset
}

// deltaClusters partitions gs by index delta and builds each cluster's
// source and destination masks; a sparse member joins its mask through
// its source box, without a bitset of its own. The masks are taken from a
// buffer the engine owns and reuses across calls, so a trim allocates no
// per-call masks.
func (e *Engine) deltaClusters(gs []core.Group) []deltaCluster {
	var cs []deltaCluster
	byDelta := make(map[int64]int)
	for _, g := range gs {
		gg := g.(*group)
		k, ok := byDelta[gg.sdelta]
		if !ok {
			k = len(cs)
			byDelta[gg.sdelta] = k
			cs = append(cs, deltaCluster{sdelta: gg.sdelta, src: e.clusterMask(2 * k), dst: e.clusterMask(2*k + 1)})
		}
		e.orSources(gg, cs[k].src)
	}
	for _, c := range cs {
		c.dst.ShiftInto(c.src, c.sdelta)
	}
	return cs
}

// clusterMask returns the i-th pooled mask bitset, cleared.
func (e *Engine) clusterMask(i int) *Bitset {
	for len(e.masks) <= i {
		e.masks = append(e.masks, NewBitset(e.n))
	}
	return e.masks[i].ClearAll()
}

// trimList is the work list of one delta cluster in one direction of the
// trim: acc |= shift(cc, delta) ∩ mask ∩ cc, over the words
// e.trimWords[lo:lo+n], where that set was non-empty in the last round.
type trimList struct {
	acc, mask *Bitset
	delta     int64
	lo, n     int
}

// trimCore trims w to its cycle core: the greatest subset in which every
// state has both a successor and a predecessor inside the subset. Every
// cyclic SCC lies entirely within the core, so Tarjan searches the core
// instead of w. In the common case — the heuristic keeps the recovery
// graph acyclic — the core empties out after a few word-level fixpoint
// rounds and the search is skipped entirely. Each round runs over the
// delta clusters of gs, not over the groups, and over the words each
// cluster still reaches, not over the universe: the first round lists
// them, and as the core only shrinks, each later round drops the words
// that went empty. A cluster direction whose list empties retires.
// Returns nil when canceled.
func (e *Engine) trimCore(gs []core.Group, w *Bitset) *Bitset {
	if e.canceled() {
		return nil
	}
	cs := e.deltaClusters(gs)
	cc := w.Clone()
	hasSucc := NewBitset(e.n)
	hasPred := NewBitset(e.n)
	// Pre(C, cc): states of src(C) whose successor stays in cc;
	// Post(C, cc): states reached from cc ∩ src(C).
	lists := make([]trimList, 0, 2*len(cs))
	words := e.trimWords[:0]
	for _, c := range cs {
		for _, l := range [2]trimList{
			{acc: hasSucc, mask: c.src, delta: -c.sdelta},
			{acc: hasPred, mask: c.dst, delta: c.sdelta},
		} {
			l.lo = len(words)
			words = l.acc.orShiftCore(cc, l.delta, l.mask, words)
			if l.n = len(words) - l.lo; l.n > 0 {
				lists = append(lists, l)
			}
		}
	}
	e.trimWords = words
	for cc.meetInto(hasSucc, hasPred) {
		if e.canceled() {
			return nil
		}
		live := lists[:0]
		for _, l := range lists {
			l.n = len(l.acc.orShiftCoreListed(cc, l.delta, l.mask, words[l.lo:l.lo+l.n]))
			if l.n > 0 {
				live = append(live, l)
			}
		}
		lists = live
	}
	return cc
}

// tarjanSCCs runs an iterative Tarjan strongly-connected-components search
// over the union of gs restricted to states in w.
func (e *Engine) tarjanSCCs(gs []core.Group, w *Bitset) []core.Set {
	inSet := make([]bool, len(e.all))
	for _, g := range gs {
		inSet[g.(*group).id] = true
	}

	const unvisited = int32(-1)
	index := make([]int32, e.n)
	lowlink := make([]int32, e.n)
	for i := range index {
		index[i] = unvisited
	}
	onStack := NewBitset(e.n)
	var sccStack []uint64
	var next int32

	// Each frame is the successor cursor of its state, so the search
	// stores no successor lists and allocates nothing per visited state.
	var frames []succCursor
	var results []core.Set

	// Cooperative cancellation: ctx.Err() is checked every cancelCheckMask+1
	// visited states; on cancellation the search aborts and returns the
	// components found so far (the caller re-checks the context).
	const cancelCheckMask = 1023
	var steps uint64

	visit := func(v uint64) succCursor {
		index[v] = next
		lowlink[v] = next
		next++
		sccStack = append(sccStack, v)
		onStack.Set(v)
		return succCursor{v: v, pi: -1}
	}

	w.ForEach(func(start uint64) bool {
		if index[start] != unvisited {
			return true
		}
		frames = append(frames[:0], visit(start))
		for len(frames) > 0 {
			if steps++; steps&cancelCheckMask == 0 && e.canceled() {
				return false
			}
			f := &frames[len(frames)-1]
			if u, ok := e.nextSucc(f, inSet, w); ok {
				if index[u] == unvisited {
					frames = append(frames, visit(u))
				} else if onStack.Get(u) && index[u] < lowlink[f.v] {
					lowlink[f.v] = index[u]
				}
				continue
			}
			// Frame complete.
			v, self := f.v, f.self
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				p := &frames[len(frames)-1]
				if lowlink[v] < lowlink[p.v] {
					lowlink[p.v] = lowlink[v]
				}
			}
			if lowlink[v] == index[v] {
				// Pop the component rooted at v.
				var members []uint64
				for {
					u := sccStack[len(sccStack)-1]
					sccStack = sccStack[:len(sccStack)-1]
					onStack.Clear(u)
					members = append(members, u)
					if u == v {
						break
					}
				}
				if len(members) > 1 || self {
					scc := NewBitset(e.n)
					for _, u := range members {
						scc.Set(u)
					}
					results = append(results, scc)
					e.stats.SCCCount++
					e.stats.SCCSizeTotal += len(members)
				}
			}
		}
		return true
	})
	return results
}
