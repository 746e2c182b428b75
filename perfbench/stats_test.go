package main

import (
	"math"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so sorting matters
	}
	return xs
}

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		got, ok := median(tc.in)
		if !ok || got != tc.want {
			t.Errorf("median(%v) = %v, %v; want %v", tc.in, got, ok, tc.want)
		}
	}
	if _, ok := median(nil); ok {
		t.Error("median of an empty sample must be refused")
	}
	in := []float64{3, 1, 2}
	median(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Errorf("median reordered its input: %v", in)
	}
}

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	// p95 needs at least 200 samples: 199 leave only 9 beyond it.
	if v, ok := tailPercentile(seq(199), 0.95); ok {
		t.Errorf("p95 of 199 samples = %v; must be refused", v)
	}
	v, ok := tailPercentile(seq(200), 0.95)
	if !ok || v != 190 {
		t.Errorf("p95 of 1..200 = %v, %v; want 190 (10 samples beyond)", v, ok)
	}
	// p50 needs 20.
	if _, ok := tailPercentile(seq(19), 0.5); ok {
		t.Error("p50 of 19 samples must be refused")
	}
	if v, ok := tailPercentile(seq(20), 0.5); !ok || v != 10 {
		t.Errorf("p50 of 1..20 = %v, %v; want 10", v, ok)
	}
	// p99 needs 1000.
	if _, ok := tailPercentile(seq(999), 0.99); ok {
		t.Error("p99 of 999 samples must be refused")
	}
	if _, ok := tailPercentile(seq(1000), 0.99); !ok {
		t.Error("p99 of 1000 samples must be reported")
	}
	for _, p := range []float64{0, 1, -0.5, 1.5} {
		if _, ok := tailPercentile(seq(5000), p); ok {
			t.Errorf("p=%v must be refused", p)
		}
	}
}

func TestGeomeanOfPerKeyMedians(t *testing.T) {
	// Medians 2 and 8 → geomean 4, whatever the outliers around them.
	meds, n := perKeyMedians(map[string][]float64{
		"a": {2, 100, 1, 2, 3},
		"b": {8, 8, 0.5},
	})
	g, ok := geomean(meds)
	if !ok || n != 8 || math.Abs(g-4) > 1e-12 || sum(meds) != 10 {
		t.Errorf("medians %v over %d samples, geomean %v, %v; want [2 8] over 8, geomean 4", meds, n, g, ok)
	}
	if _, ok := geomean([]float64{1, 0, 2}); ok {
		t.Error("geomean with a zero must be refused")
	}
	if _, ok := geomean(nil); ok {
		t.Error("geomean of nothing must be refused")
	}
}

func TestRoundOrderInterleaves(t *testing.T) {
	const n, rounds = 6, 12
	firsts := map[int]bool{}
	for r := 0; r < rounds; r++ {
		order := roundOrder(42, r, n)
		seen := make([]bool, n)
		for _, c := range order {
			if seen[c] {
				t.Fatalf("round %d visits case %d twice: %v", r, c, order)
			}
			seen[c] = true
		}
		if len(order) != n {
			t.Fatalf("round %d visits %d cases, want %d", r, len(order), n)
		}
		firsts[order[0]] = true
	}
	if len(firsts) < 2 {
		t.Errorf("the same case led all %d rounds", rounds)
	}
	a, b := roundOrder(42, 3, n), roundOrder(42, 3, n)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("round order is not a function of (seed, round): %v vs %v", a, b)
		}
	}
}

func TestStartAnotherRound(t *testing.T) {
	s := time.Second
	if !startAnotherRound(100*s, 10*s, nil, 2) {
		t.Error("the minimum number of rounds must always run")
	}
	done := []time.Duration{3 * s, 4 * s, 30 * s}
	if !startAnotherRound(5*s, 10*s, done, 2) {
		t.Error("5s spent + 4s median fits a 10s budget")
	}
	if startAnotherRound(7*s, 10*s, done, 2) {
		t.Error("7s spent + 4s median overruns a 10s budget")
	}
}
