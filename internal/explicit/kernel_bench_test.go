package explicit

import (
	"math/rand"
	"testing"

	"stsyn/internal/core"
	"stsyn/internal/protocol"
	"stsyn/internal/protocols"
)

// benchEngine builds an engine over the three-coloring instance used by the
// kernel benchmarks (3^12 = 531441 states) plus a dense input set; with
// reference set it is wrapped as the per-state oracle (refEngine).
func benchEngine(b *testing.B, reference bool) (core.Engine, []core.Group, *Bitset) {
	b.Helper()
	e, err := New(protocols.Coloring(12), 0)
	if err != nil {
		b.Fatal(err)
	}
	gs := append(e.ActionGroups(), e.CandidateGroups()...)
	dense := e.Not(e.Invariant()).(*Bitset)
	// Warm the lazy source caches so steady-state image cost is measured.
	e.Pre(gs, dense)
	b.ResetTimer()
	if reference {
		return refEngine{e}, gs, dense
	}
	return e, gs, dense
}

func BenchmarkPreKernel(b *testing.B) {
	e, gs, x := benchEngine(b, false)
	for i := 0; i < b.N; i++ {
		e.Pre(gs, x)
	}
}

func BenchmarkPreReference(b *testing.B) {
	e, gs, x := benchEngine(b, true)
	for i := 0; i < b.N; i++ {
		e.Pre(gs, x)
	}
}

func BenchmarkGroupDstIntoKernel(b *testing.B) {
	e, gs, x := benchEngine(b, false)
	for i := 0; i < b.N; i++ {
		for _, g := range gs {
			e.GroupDstInto(g, x)
		}
	}
}

func BenchmarkGroupDstIntoReference(b *testing.B) {
	e, gs, x := benchEngine(b, true)
	for i := 0; i < b.N; i++ {
		for _, g := range gs {
			e.GroupDstInto(g, x)
		}
	}
}

// BenchmarkCyclicSCCs times the trimmed Tarjan search restricted to ¬I
// (the region the heuristic scans) on two instances: coloring-12 over all
// its groups, and the two-ring over its action groups plus every other
// candidate group. The two-ring's groups are too sparse for word passes
// and its delta-cluster masks mostly empty, the case the trim's word
// lists exist for.
func BenchmarkCyclicSCCs(b *testing.B) {
	b.Run("coloring-12", func(b *testing.B) {
		e, gs, x := benchEngine(b, false)
		for i := 0; i < b.N; i++ {
			e.CyclicSCCs(gs, x)
		}
	})
	b.Run("two-ring", func(b *testing.B) {
		e, err := New(protocols.TwoRingTokenRing(), 0)
		if err != nil {
			b.Fatal(err)
		}
		gs := e.ActionGroups()
		for i, g := range e.CandidateGroups() {
			if i%2 == 0 {
				gs = append(gs, g)
			}
		}
		x := e.Not(e.Invariant())
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.CyclicSCCs(gs, x)
		}
	})
}

// BenchmarkSCCGroups times cycle attribution on two batch shapes: the
// components of the action groups plus a subset of the candidate groups in
// ¬I, attributed to that subset. On matching-9 (3^9 = 19683 states, every
// other candidate) that is 511 small components. On coloring-11 (3^11 =
// 177147 states, a seeded random half of the candidates) it is two
// components over most of ¬I and groups whose sources are too dense for a
// per-state walk. "labels" is the engine's labelled pass, "pairwise" the
// GroupFromTo probe per (component, group) pair it replaced.
func BenchmarkSCCGroups(b *testing.B) {
	for _, c := range []struct {
		name string
		sp   *protocol.Spec
		keep func(rng *rand.Rand, i int) bool
	}{
		{"matching-9", protocols.Matching(9), func(_ *rand.Rand, i int) bool { return i%2 == 0 }},
		{"coloring-11", protocols.Coloring(11), func(rng *rand.Rand, _ int) bool { return rng.Intn(100) < 50 }},
	} {
		e, err := New(c.sp, 0)
		if err != nil {
			b.Fatal(err)
		}
		rng := rand.New(rand.NewSource(3))
		var added []core.Group
		for i, g := range e.CandidateGroups() {
			if c.keep(rng, i) {
				added = append(added, g)
			}
		}
		sccs := e.CyclicSCCs(append(e.ActionGroups(), added...), e.Not(e.Invariant()))
		b.Run(c.name+"/labels", func(b *testing.B) {
			b.ReportMetric(float64(len(sccs)), "sccs")
			for i := 0; i < b.N; i++ {
				e.SCCGroups(added, sccs)
			}
		})
		b.Run(c.name+"/pairwise", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.PairwiseSCCGroups(e, added, sccs)
			}
		})
	}
}

// BenchmarkScheduleSearch is the per-schedule loop of a schedule search
// (TrySchedules, fan-out, a dist worker): a fresh engine and one
// AddConvergence for each of the 24 schedules of a four-process protocol,
// so group setup weighs as it does on those paths.
func BenchmarkScheduleSearch(b *testing.B) {
	for _, bc := range []struct {
		name string
		sp   *protocol.Spec
	}{
		{"matching-4", protocols.Matching(4)},
		{"tokenring-4-5", protocols.TokenRing(4, 5)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			scheds := core.AllSchedules(len(bc.sp.Procs))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, sched := range scheds {
					e, err := New(bc.sp, 0)
					if err != nil {
						b.Fatal(err)
					}
					// A schedule that fails synthesis costs its attempt
					// all the same.
					_, _ = core.AddConvergence(e, core.Options{Schedule: sched})
				}
			}
		})
	}
}

// BenchmarkNewEngine measures engine construction alone: the invariant
// scan and the interning of every action and candidate group.
func BenchmarkNewEngine(b *testing.B) {
	for _, bc := range []struct {
		name string
		sp   *protocol.Spec
	}{
		{"coloring-12", protocols.Coloring(12)},
		{"two-ring", protocols.TwoRingTokenRing()},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := New(bc.sp, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSourcesFill rebuilds the cached source set of every dense
// coloring-12 group (648 sets over 531 441 states), the word-level fill
// of sources.
func BenchmarkSourcesFill(b *testing.B) {
	e, err := New(protocols.Coloring(12), 0)
	if err != nil {
		b.Fatal(err)
	}
	var dense []*group
	for _, g := range e.all {
		if !e.sparse(g) {
			dense = append(dense, g)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, g := range dense {
			g.srcSet = nil
			e.sources(g)
		}
	}
}
