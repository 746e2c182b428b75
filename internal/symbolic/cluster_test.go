package symbolic

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"stsyn/internal/bdd"
	"stsyn/internal/core"
	"stsyn/internal/explicit"
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

// randomStateSet is the union of a few random states of sp on e.
func randomStateSet(e core.Engine, rng *rand.Rand) core.Set {
	sp := e.Spec()
	out := e.Empty()
	s := make(protocol.State, len(sp.Vars))
	for i := 0; i < 1+rng.Intn(12); i++ {
		for id, v := range sp.Vars {
			s[id] = rng.Intn(v.Dom)
		}
		out = e.Or(out, e.Singleton(s))
	}
	return out
}

// components renders sets as engine-independent text: each set as its
// ascending state indices, the sets sorted, so the components of two
// engines compare by value regardless of enumeration order.
func components(e core.Engine, sets []core.Set) string {
	ix := protocol.NewIndexer(e.Spec())
	s := make(protocol.State, len(e.Spec().Vars))
	out := make([]string, len(sets))
	for i, x := range sets {
		var idx []uint64
		for j := uint64(0); j < ix.Len(); j++ {
			ix.Decode(j, s)
			if !e.IsEmpty(e.And(x, e.Singleton(s))) {
				idx = append(idx, j)
			}
		}
		out[i] = fmt.Sprint(idx)
	}
	sort.Strings(out)
	return fmt.Sprint(out)
}

// preFold is the ranking pre-image computed one group at a time on the
// persistent manager with a linear Or fold: the oracle for Pre's
// write-cube clusters on the scratch manager.
func preFold(e *Engine, gs []core.Group, x bdd.Ref) bdd.Ref {
	out := bdd.False
	for _, g := range gs {
		gg := g.(*group)
		out = e.m.Or(out, e.m.And(gg.src, e.m.Restrict(x, gg.writeCube)))
	}
	return out
}

// fixpointTrim is the cycle core of v by full recomputation: each round
// keeps the states of v with a successor and a predecessor in v, imaged
// one group at a time on the persistent manager. It is the oracle for the
// clustered trim with its retired clusters.
func fixpointTrim(e *Engine, gs []core.Group, v bdd.Ref) bdd.Ref {
	for {
		next := e.m.And(v, e.m.And(preFold(e, gs, v), e.Post(gs, v).(bdd.Ref)))
		if next == v {
			return v
		}
		v = next
	}
}

// trimmed runs the engine's trim of x over gs and returns the core on the
// persistent manager.
func trimmed(e *Engine, gs []core.Group, x bdd.Ref) bdd.Ref {
	c := e.newSCCCtx(gs)
	return c.copyBack(c.trim(c.copyIn(x, c.memo)), make(map[bdd.Ref]bdd.Ref))
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
// cycle detection and ranking pre-image against oracles, over random group
// subsets and restriction sets: CyclicSCCs must return the components the
// explicit engine finds (as state sets), the trim the core fixpointTrim
// computes, and Pre the set preFold computes.
func TestClusteredImagesMatchReference(t *testing.T) {
	found := 0
	for si, sp := range clusterCorpus() {
		def, err := New(sp)
		if err != nil {
			t.Fatal(err)
		}
		ex, err := explicit.New(sp, 0)
		if err != nil {
			t.Fatal(err)
		}
		exByKey := make(map[protocol.Key]core.Group)
		for _, g := range append(ex.ActionGroups(), ex.CandidateGroups()...) {
			exByKey[g.ProtocolGroup().Key()] = g
		}

		all := append(def.ActionGroups(), def.CandidateGroups()...)
		rng := rand.New(rand.NewSource(int64(si)))
		for trial := 0; trial < 6; trial++ {
			var gs, exGs []core.Group
			for _, g := range all {
				if trial == 0 || rng.Intn(trial+1) == 0 {
					gs = append(gs, g)
					exGs = append(exGs, exByKey[g.ProtocolGroup().Key()])
				}
			}
			seed := rng.Int63()
			sets := func(e core.Engine) []core.Set {
				r := rand.New(rand.NewSource(seed))
				return []core.Set{e.Universe(), e.Not(e.Invariant()), e.Invariant(), randomStateSet(e, r), randomStateSet(e, r)}
			}
			xs, exXs := sets(def), sets(ex)
			for xi := range xs {
				sccs := def.CyclicSCCs(gs, xs[xi])
				found += len(sccs)
				got := components(def, sccs)
				want := components(ex, ex.CyclicSCCs(exGs, exXs[xi]))
				if got != want {
					t.Fatalf("%s trial %d set %d: clustered CyclicSCCs %s, explicit engine %s", sp.Name, trial, xi, got, want)
				}
				x := xs[xi].(bdd.Ref)
				if trimmed(def, gs, x) != fixpointTrim(def, gs, x) {
					t.Fatalf("%s trial %d set %d: clustered trim differs from the full-recompute fixpoint", sp.Name, trial, xi)
				}
				if def.Pre(gs, x) != preFold(def, gs, x) {
					t.Fatalf("%s trial %d set %d: clustered Pre differs from the per-group fold", sp.Name, trial, xi)
				}
			}
		}
	}
	if found == 0 {
		t.Fatal("the corpus produced no cyclic components to compare")
	}
}
