package explicit

import (
	"testing"

	"stsyn/internal/core"
	"stsyn/internal/protocols"
)

// benchEngine builds an engine over the three-coloring instance used by the
// kernel benchmarks (3^12 = 531441 states) plus a dense input set, with the
// reference per-state scans toggled on demand.
func benchEngine(b *testing.B, reference bool) (*Engine, []core.Group, *Bitset) {
	b.Helper()
	e, err := New(protocols.Coloring(12), 0)
	if err != nil {
		b.Fatal(err)
	}
	e.SetReferenceKernels(reference)
	gs := append(e.ActionGroups(), e.CandidateGroups()...)
	dense := e.Not(e.Invariant()).(*Bitset)
	// Warm the lazy source/destination caches so steady-state image cost is
	// measured.
	e.Pre(gs, dense)
	e.Post(gs, dense)
	b.ResetTimer()
	return e, gs, dense
}

func BenchmarkPostKernel(b *testing.B) {
	e, gs, x := benchEngine(b, false)
	for i := 0; i < b.N; i++ {
		e.Post(gs, x)
	}
}

func BenchmarkPostReference(b *testing.B) {
	e, gs, x := benchEngine(b, true)
	for i := 0; i < b.N; i++ {
		e.Post(gs, x)
	}
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

// BenchmarkCyclicSCCs times the trimmed Tarjan search on the coloring
// instance restricted to ¬I (the region the heuristic scans).
func BenchmarkCyclicSCCs(b *testing.B) {
	e, gs, x := benchEngine(b, false)
	for i := 0; i < b.N; i++ {
		e.CyclicSCCs(gs, x)
	}
}
