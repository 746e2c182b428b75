package explicit

import (
	"runtime"
	"sync"

	"stsyn/internal/core"
)

// The paper's conclusion lists "parallelization of our algorithms towards
// exploiting the computational resources of computer clusters" as future
// work. The explicit engine's image operations are embarrassingly parallel
// across transition groups: each worker scans a slice of the groups into a
// private bitset and the results are OR-reduced. The reduction is
// deterministic (bitwise OR is commutative and associative), so parallel
// and sequential engines produce identical results — the differential tests
// rely on that.

// parallelThreshold is the group count below which the sequential path is
// used (goroutine fan-out costs more than it saves on tiny protocols).
const parallelThreshold = 64

// SetParallelism sets the number of workers used by Pre/Post/EnabledSources
// (0 restores the default GOMAXPROCS; 1 forces sequential execution).
func (e *Engine) SetParallelism(workers int) {
	if workers < 0 {
		workers = 0
	}
	e.workers = workers
}

// Workers returns the configured parallelism (0 = GOMAXPROCS).
func (e *Engine) Workers() int { return e.workers }

func (e *Engine) workerCount(ngroups int) int {
	w := e.workers
	if w == 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if ngroups < parallelThreshold || w <= 1 {
		return 1
	}
	if w > ngroups {
		w = ngroups
	}
	return w
}

// scanGroups partitions gs across workers; each worker folds its share into
// a private bitset via fold, and the privates are OR-merged pairwise. Chunks
// past the end of gs leave their private nil and take no part in the merge.
// fill fills the per-group caches fold reads. It runs for every group
// before the workers start: a group may appear in gs more than once, and
// two workers must not fill one cache.
func (e *Engine) scanGroups(gs []core.Group, fill func(g *group), fold func(g *group, acc *Bitset)) *Bitset {
	nw := e.workerCount(len(gs))
	if nw == 1 {
		acc := NewBitset(e.n)
		for _, g := range gs {
			fold(g.(*group), acc)
		}
		return acc
	}
	for _, g := range gs {
		fill(g.(*group))
	}
	privates := make([]*Bitset, nw)
	var wg sync.WaitGroup
	chunk := (len(gs) + nw - 1) / nw
	for w := 0; w < nw; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > len(gs) {
			hi = len(gs)
		}
		if lo >= hi {
			continue // leave privates[w] nil; the merge skips it
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			acc := NewBitset(e.n)
			for _, g := range gs[lo:hi] {
				fold(g.(*group), acc)
			}
			privates[w] = acc
		}(w, lo, hi)
	}
	wg.Wait()
	return mergePairwise(privates)
}

// mergePairwise OR-reduces the non-nil privates as a balanced binary tree:
// each round merges pairs at the current stride concurrently, so the
// reduction costs O(log nw) rounds of word-level ORs instead of a serial
// fold into privates[0].
func mergePairwise(privates []*Bitset) *Bitset {
	for stride := 1; stride < len(privates); stride *= 2 {
		var wg sync.WaitGroup
		for lo := 0; lo+stride < len(privates); lo += 2 * stride {
			a, b := privates[lo], privates[lo+stride]
			switch {
			case b == nil:
				// Nothing to merge in.
			case a == nil:
				privates[lo] = b
			default:
				wg.Add(1)
				go func(a, b *Bitset) {
					defer wg.Done()
					a.OrInPlace(b)
				}(a, b)
			}
		}
		wg.Wait()
	}
	// Worker 0's chunk is never empty (workerCount ≤ len(gs)), so the
	// reduction root is always materialized.
	return privates[0]
}
