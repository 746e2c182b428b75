package symbolic

import (
	"fmt"
	"math/rand"
	"testing"

	"stsyn/internal/bdd"
	"stsyn/internal/core"
	"stsyn/internal/protocol"
	"stsyn/internal/protocols"
	"stsyn/internal/specgen"
)

// clusterCorpus is the spec corpus of the clustering tests: built-ins,
// plus random specs in which several processes may write one variable, so
// groups of different processes share a write cube.
func clusterCorpus() []*protocol.Spec {
	specs := []*protocol.Spec{
		protocols.TokenRing(4, 3),
		protocols.Matching(5),
		protocols.Coloring(5),
		protocols.GoudaAcharyaMatching(4),
		protocols.DijkstraTokenRing(4, 3),
	}
	for seed := int64(0); seed < 16; seed++ {
		specs = append(specs, specgen.RandomSpec(rand.New(rand.NewSource(seed)), true))
	}
	return specs
}

// randomStateSet is the union of a few random states of sp.
func randomStateSet(e *Engine, rng *rand.Rand) core.Set {
	out := e.Empty()
	s := make(protocol.State, len(e.sp.Vars))
	for i := 0; i < 1+rng.Intn(12); i++ {
		for id, v := range e.sp.Vars {
			s[id] = rng.Intn(v.Dom)
		}
		out = e.Or(out, e.Singleton(s))
	}
	return out
}

// exported renders sets as manager-independent snapshots, so sets of two
// engines over one spec compare by value.
func exported(e *Engine, sets []core.Set) string {
	out := make([][]uint64, len(sets))
	for i, s := range sets {
		out[i] = e.ExportSet(s)
	}
	return fmt.Sprint(out)
}

// TestClusterCorpusSharesWriteCubes pins the property the random half of
// the corpus is there for: some spec has groups of two processes that
// share one write cube, so a cluster spans processes.
func TestClusterCorpusSharesWriteCubes(t *testing.T) {
	for _, sp := range clusterCorpus() {
		e, err := New(sp)
		if err != nil {
			t.Fatal(err)
		}
		procs := make(map[bdd.Ref]map[int]bool)
		for _, g := range append(e.ActionGroups(), e.CandidateGroups()...) {
			gg := g.(*group)
			if procs[gg.writeCube] == nil {
				procs[gg.writeCube] = make(map[int]bool)
			}
			procs[gg.writeCube][gg.Proc()] = true
			if len(procs[gg.writeCube]) > 1 {
				return
			}
		}
	}
	t.Fatal("no corpus spec has a write cube shared across processes")
}

// TestClusteredImagesMatchReference compares the write-cube clustered
// cycle detection and ranking pre-image against the per-group reference
// modes, over random group subsets and restriction sets: CyclicSCCs must
// return the same components in the same order as under
// SetReferenceFixpoints, and Pre the same set as under SetReferenceRanks.
func TestClusteredImagesMatchReference(t *testing.T) {
	found := 0
	for si, sp := range clusterCorpus() {
		def, err := New(sp)
		if err != nil {
			t.Fatal(err)
		}
		refFix, _ := New(sp)
		refFix.SetReferenceFixpoints(true)
		refRanks, _ := New(sp)
		refRanks.SetReferenceRanks(true)

		all := append(def.ActionGroups(), def.CandidateGroups()...)
		allFix := append(refFix.ActionGroups(), refFix.CandidateGroups()...)
		allRanks := append(refRanks.ActionGroups(), refRanks.CandidateGroups()...)
		rng := rand.New(rand.NewSource(int64(si)))
		for trial := 0; trial < 6; trial++ {
			var gs, gsFix, gsRanks []core.Group
			for i := range all {
				if trial == 0 || rng.Intn(trial+1) == 0 {
					gs = append(gs, all[i])
					gsFix = append(gsFix, allFix[i])
					gsRanks = append(gsRanks, allRanks[i])
				}
			}
			seed := rng.Int63()
			sets := func(e *Engine) []core.Set {
				r := rand.New(rand.NewSource(seed))
				return []core.Set{e.Universe(), e.Not(e.Invariant()), e.Invariant(), randomStateSet(e, r), randomStateSet(e, r)}
			}
			xs, xsFix, xsRanks := sets(def), sets(refFix), sets(refRanks)
			for xi := range xs {
				sccs := def.CyclicSCCs(gs, xs[xi])
				found += len(sccs)
				got := exported(def, sccs)
				want := exported(refFix, refFix.CyclicSCCs(gsFix, xsFix[xi]))
				if got != want {
					t.Fatalf("%s trial %d set %d: clustered CyclicSCCs differ from SetReferenceFixpoints", sp.Name, trial, xi)
				}
				got = exported(def, []core.Set{def.Pre(gs, xs[xi])})
				want = exported(refRanks, []core.Set{refRanks.Pre(gsRanks, xsRanks[xi])})
				if got != want {
					t.Fatalf("%s trial %d set %d: clustered Pre differs from SetReferenceRanks", sp.Name, trial, xi)
				}
			}
		}
	}
	if found == 0 {
		t.Fatal("the corpus produced no cyclic components to compare")
	}
}
