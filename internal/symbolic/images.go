package symbolic

import (
	"stsyn/internal/bdd"
	"stsyn/internal/core"
)

// This file holds the ranking/recovery image path: the engine-level
// Pre and the per-group probe operations run on the retained cycle-
// detection scratch manager (warm operation cache, persistent→scratch copy
// memo) instead of the persistent store, and Pre's per-write-cube-cluster
// terms are combined through a balanced union tree. The probes return
// booleans, and Pre's result is a canonical BDD of the same function
// regardless of where — and in which association order — it was computed.

// orTree unions terms through a balanced pairwise reduction. The linear
// fold conjures one ever-growing accumulator that every next Or must
// re-walk; the tree keeps operand sizes comparable and its intermediates
// cache-friendly. BDD canonicity makes the result independent of the
// association order, so callers may switch freely. terms is clobbered.
func orTree(m *bdd.Manager, terms []bdd.Ref) bdd.Ref {
	if len(terms) == 0 {
		return bdd.False
	}
	for len(terms) > 1 {
		n := 0
		for i := 0; i+1 < len(terms); i += 2 {
			terms[n] = m.Or(terms[i], terms[i+1])
			n++
		}
		if len(terms)%2 == 1 {
			terms[n] = terms[len(terms)-1]
			n++
		}
		terms = terms[:n]
	}
	return terms[0]
}

// imgCtx returns a context over the retained scratch manager for engine-
// level image work outside CyclicSCCs (ranking pre-images, recovery
// probes). It shares the scratch copy memo, so the recurring inputs — the
// group cubes, and the from/to/deadlock sets a candidate filter probes
// against for every group of a process — migrate once per scratch manager
// instead of once per operation.
func (e *Engine) imgCtx() *sccCtx {
	s := e.ensureScratch()
	return &sccCtx{e: e, m: s.m, memo: s.memo}
}

// Pre computes the pre-image on the retained scratch manager and migrates
// the result back to the persistent store. The groups are clustered by
// write cube as in CyclicSCCs, so X is cofactored once per distinct cube
// instead of once per group.
func (e *Engine) Pre(gs []core.Group, X core.Set) core.Set {
	c := e.imgCtx()
	c.addClustered(gs)
	out := c.pre(c.copyIn(X.(bdd.Ref), c.memo))
	return c.copyBack(out, make(map[bdd.Ref]bdd.Ref))
}

// fromTo returns from ∧ Restrict(to, wcube(g)) on the scratch manager:
// the states whose successor under any group with g's write cube lies in
// to, intersected with from. It depends on g only through the cube.
func (c *sccCtx) fromTo(from, to bdd.Ref, g *group) bdd.Ref {
	return c.m.And(from, c.m.Restrict(to, c.copyIn(g.writeCube, c.memo)))
}

// srcMeets reports whether g has a source state in x (a scratch ref),
// without building the conjunction.
func (c *sccCtx) srcMeets(g *group, x bdd.Ref) bool {
	return c.m.Intersects(c.copyIn(g.src, c.memo), x)
}
