package main

import (
	"math"
	"math/rand"
	"sort"
	"time"
)

// The aggregation rules every reported number goes through. They are the
// benchmark's defence against a shared, noisy host: every timed operation
// is reported as its median over the rounds, rounds interleave the cases
// so a slow stretch of the host hits all of them, geometric means keep any
// one case from dominating, and tail percentiles are reported only where
// the sample supports them.

// tailBeyond is the least number of samples that must lie beyond a tail
// percentile for it to be reported.
const tailBeyond = 10

// median returns the middle of xs (the mean of the two middle values for an
// even count) and false for an empty sample. xs is not modified.
func median(xs []float64) (float64, bool) {
	n := len(xs)
	if n == 0 {
		return 0, false
	}
	s := sorted(xs)
	if n%2 == 1 {
		return s[n/2], true
	}
	return (s[n/2-1] + s[n/2]) / 2, true
}

// tailPercentile returns the nearest-rank p-quantile of xs (0 < p < 1), or
// false when fewer than tailBeyond samples lie beyond it. For p = 0.95 that
// refuses every sample smaller than 200.
func tailPercentile(xs []float64, p float64) (float64, bool) {
	n := len(xs)
	if n == 0 || p <= 0 || p >= 1 {
		return 0, false
	}
	rank := int(math.Ceil(p * float64(n))) // 1-based nearest rank
	if n-rank < tailBeyond {
		return 0, false
	}
	return sorted(xs)[rank-1], true
}

// geomean returns the geometric mean of positive values, false when xs is
// empty or holds a value that is not positive.
func geomean(xs []float64) (float64, bool) {
	if len(xs) == 0 {
		return 0, false
	}
	logs := 0.0
	for _, x := range xs {
		if !(x > 0) {
			return 0, false
		}
		logs += math.Log(x)
	}
	return math.Exp(logs / float64(len(xs))), true
}

// perKeyMedians returns each key's median in key order, with the number
// of samples behind them.
func perKeyMedians(byKey map[string][]float64) ([]float64, int) {
	out := make([]float64, 0, len(byKey))
	n := 0
	for _, k := range sortedKeys(byKey) {
		if v, ok := median(byKey[k]); ok {
			out = append(out, v)
			n += len(byKey[k])
		}
	}
	return out, n
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// roundOrder returns the order in which round r visits n cases: a
// permutation drawn from (seed, r), so every round visits every case once
// and no case always runs first or last.
func roundOrder(seed int64, r, n int) []int {
	return rand.New(rand.NewSource(seed*7919 + int64(r))).Perm(n)
}

// startAnotherRound reports whether a round that costs about as much as the
// median of the finished ones still fits the budget, given the time already
// spent. At least minRounds rounds always run.
func startAnotherRound(spent, budget time.Duration, finished []time.Duration, minRounds int) bool {
	if len(finished) < minRounds {
		return true
	}
	ms := make([]float64, len(finished))
	for i, d := range finished {
		ms[i] = float64(d)
	}
	m, _ := median(ms)
	return spent+time.Duration(m) <= budget
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
