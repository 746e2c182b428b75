package core

import (
	"context"

	"stsyn/internal/protocol"
)

// Pim computes the intermediate protocol p_im of Section IV: the transition
// groups of p plus the weakest set of recovery groups permitted by the
// read/write restrictions — every candidate group all of whose transitions
// start outside I. The result preserves δp|I and the closure of I.
func Pim(e Engine, pss []Group) []Group {
	return pimFrom(pss, RecoveryCandidates(e))
}

// pimFrom is Pim over an already computed RecoveryCandidates list, so
// AddConvergence filters the candidates once for both the ranking and the
// recovery passes.
func pimFrom(pss, candidates []Group) []Group {
	out := append([]Group(nil), pss...)
	seen := make(map[protocol.Key]bool, len(pss))
	for _, g := range pss {
		seen[g.ProtocolGroup().Key()] = true
	}
	for _, g := range candidates {
		if k := g.ProtocolGroup().Key(); !seen[k] {
			seen[k] = true
			out = append(out, g)
		}
	}
	return out
}

// RecoveryCandidates returns the candidate groups that satisfy constraint
// C1: no transition of the group starts in I. Only these may ever be added
// as recovery, because a groupmate starting in I would change δp|I. The
// per-candidate disjointness test is Engine.GroupSrcIntersects, which
// answers without cloning or allocating.
func RecoveryCandidates(e Engine) []Group {
	I := e.Invariant()
	var out []Group
	for _, g := range e.CandidateGroups() {
		if !e.GroupSrcIntersects(g, I) {
			out = append(out, g)
		}
	}
	return out
}

// ComputeRanks implements the paper's ComputeRanks (Figure 2): a backward
// breadth-first search from I over the transitions of pim. ranks[0] = I and
// ranks[i] contains exactly the states whose shortest computation prefix of
// pim to I has length i. infinite is the set of states with rank ∞: states
// from which no computation prefix of pim reaches I. By Theorem IV.1,
// infinite is empty iff a (weakly) stabilizing version of p exists.
func ComputeRanks(e Engine, pim []Group) (ranks []Set, infinite Set) {
	//lint:ignore ctxflow public context-free wrapper; computeRanks is the cancellable variant
	ranks, infinite, _ = computeRanks(context.Background(), e, pim)
	return ranks, infinite
}

// computeRanks is ComputeRanks with cooperative cancellation: the backward
// BFS is a fixpoint whose iteration count is the protocol's recovery
// diameter, so the context is checked once per frontier. On a MutableSets
// engine the fixpoint runs in place: the explored set is a private copy
// grown with OrInto, and each frontier reuses the Pre image it was carved
// from, so one BFS level costs one allocation (the frontier itself, which
// outlives the loop as a rank) instead of three.
//
// By default each level pre-images the cheaper of the previous frontier
// and the accumulated explored set, measured by the engine's SetSize.
// Both bases yield the same next level: a state with a transition into
// the explored set has one into the minimal-rank target among its
// successors, so Pre(rank i) \ explored equals Pre(explored) \ explored.
// Which base is cheaper to image is a property of the representation,
// not of the algorithm: on the explicit engine the frontier is a strict
// subset and always the smaller population, while in BDD form the
// monotone basin often compresses far below the thin frontier shell —
// measured on coloring-11, imaging the basin is ~40% cheaper than the
// frontier regardless of how the preimage itself is routed.
func computeRanks(ctx context.Context, e Engine, pim []Group) (ranks []Set, infinite Set, err error) {
	I := e.Invariant()
	ms, inPlace := e.(MutableSets)
	explored := I
	if inPlace {
		explored = ms.Dup(I)
	}
	ranks = []Set{I}
	frontier := I
	for {
		if err := ctx.Err(); err != nil {
			return ranks, e.Diff(e.Universe(), explored), err
		}
		base := frontier
		if e.SetSize(explored) < e.SetSize(frontier) {
			base = explored
		}
		var next Set
		if inPlace {
			pre := e.Pre(pim, base)
			ms.DiffInto(pre, explored)
			next = pre
		} else {
			next = e.Diff(e.Pre(pim, base), explored)
		}
		if e.IsEmpty(next) {
			break
		}
		ranks = append(ranks, next)
		if inPlace {
			ms.OrInto(explored, next)
		} else {
			explored = e.Or(explored, next)
		}
		frontier = next
	}
	return ranks, e.Diff(e.Universe(), explored), nil
}

// Deadlocks returns the deadlock states of the given protocol: states
// outside I with no outgoing transition.
func Deadlocks(e Engine, pss []Group) Set {
	return e.Diff(e.Not(e.Invariant()), e.EnabledSources(pss))
}
