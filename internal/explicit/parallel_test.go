package explicit

import (
	"testing"

	"stsyn/internal/protocols"
)

// TestParallelImagesMatchSequential checks that the parallel image
// operations are bit-identical to the sequential path on a protocol large
// enough to cross the fan-out threshold. Every group is listed twice, so
// under -race it also checks that two workers whose chunks share a group
// do not both fill its lazy caches.
func TestParallelImagesMatchSequential(t *testing.T) {
	sp := protocols.Matching(7) // 7 × 54 candidate groups ≫ threshold
	seq, err := New(sp, 0)
	if err != nil {
		t.Fatal(err)
	}
	seq.SetParallelism(1)
	par, err := New(sp, 0)
	if err != nil {
		t.Fatal(err)
	}
	par.SetParallelism(4)

	sgs := append(seq.CandidateGroups(), seq.CandidateGroups()...)
	pgs := append(par.CandidateGroups(), par.CandidateGroups()...)
	for _, x := range []struct {
		s, p *Bitset
		name string
	}{
		{seq.Invariant().(*Bitset), par.Invariant().(*Bitset), "inv"},
		{seq.Not(seq.Invariant()).(*Bitset), par.Not(par.Invariant()).(*Bitset), "¬inv"},
	} {
		if !seq.Pre(sgs, x.s).(*Bitset).Equal(par.Pre(pgs, x.p).(*Bitset)) {
			t.Errorf("Pre over %s differs between sequential and parallel", x.name)
		}
		if !seq.Post(sgs, x.s).(*Bitset).Equal(par.Post(pgs, x.p).(*Bitset)) {
			t.Errorf("Post over %s differs between sequential and parallel", x.name)
		}
	}
	if !seq.EnabledSources(sgs).(*Bitset).Equal(par.EnabledSources(pgs).(*Bitset)) {
		t.Error("EnabledSources differs between sequential and parallel")
	}
}

func TestWorkerCount(t *testing.T) {
	e, err := New(protocols.TokenRing(4, 3), 0)
	if err != nil {
		t.Fatal(err)
	}
	e.SetParallelism(8)
	if got := e.workerCount(4); got != 1 {
		t.Errorf("tiny group count should stay sequential, got %d workers", got)
	}
	if got := e.workerCount(1000); got != 8 {
		t.Errorf("workerCount(1000) = %d, want 8", got)
	}
	e.SetParallelism(1)
	if got := e.workerCount(1000); got != 1 {
		t.Errorf("forced sequential, got %d", got)
	}
	e.SetParallelism(0) // default
	if got := e.workerCount(1000); got < 1 {
		t.Errorf("default workers = %d", got)
	}
}

func BenchmarkPreSequential(b *testing.B) { benchPre(b, 1) }
func BenchmarkPreParallel(b *testing.B)   { benchPre(b, 0) }

func benchPre(b *testing.B, workers int) {
	sp := protocols.Matching(11)
	e, err := New(sp, 0)
	if err != nil {
		b.Fatal(err)
	}
	e.SetParallelism(workers)
	gs := e.CandidateGroups()
	x := e.Not(e.Invariant())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Pre(gs, x)
	}
}
