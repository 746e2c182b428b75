package bdd

import (
	"math/rand"
	"testing"
	"unsafe"
)

// shrinkCache replaces m's operation cache with an empty one of n entries
// (a power of two ≥ 2), so small workloads provoke conflict evictions.
func shrinkCache(m *Manager, n int) {
	m.cache = make([]cacheEntry, n)
	m.cmask = uint32(n/2 - 1)
}

// auditCacheStats checks the cross-counter invariants of the operation
// cache that every workload must preserve:
//
//   - evictions happen only on misses (a hit never displaces anything);
//   - the cache size is a power of two;
//   - the hit rate is a fraction.
func auditCacheStats(t *testing.T, m *Manager) {
	t.Helper()
	s := m.Stats()
	if s.CacheEvictions > s.CacheMisses {
		t.Fatalf("evictions %d > misses %d", s.CacheEvictions, s.CacheMisses)
	}
	if s.CacheSize&(s.CacheSize-1) != 0 {
		t.Fatalf("cache size %d is not a power of two", s.CacheSize)
	}
	if s.CacheHitRate < 0 || s.CacheHitRate > 1 {
		t.Fatalf("hit rate %f out of range", s.CacheHitRate)
	}
}

// TestCacheStatsCoherentAcrossGrowth drives a random workload through
// unique-table growth on a small cache, auditing the counters at every step.
func TestCacheStatsCoherentAcrossGrowth(t *testing.T) {
	m := New(16)
	shrinkCache(m, 256)
	rng := rand.New(rand.NewSource(42))

	buckets := len(m.buckets)
	for i := 0; i < 400; i++ {
		randomFunc(m, rng, 16, 24)
		auditCacheStats(t, m)
	}
	if len(m.buckets) == buckets {
		t.Fatal("the unique table never grew; the audit missed the rehash path")
	}
	if m.Stats().CacheEvictions == 0 {
		t.Fatal("workload produced no conflict evictions; the audit exercised nothing")
	}
}

// sameSetTriples returns distinct non-terminal ITE operand triples that map
// to the same cache set, by probing cacheSlot directly.
func sameSetTriples(m *Manager, want int) [][3]Ref {
	bySlot := make(map[uint32][][3]Ref)
	for i := 0; i < m.NumVars(); i++ {
		for j := 0; j < m.NumVars(); j++ {
			for k := 0; k < m.NumVars(); k++ {
				if i == j || j == k || i == k {
					continue
				}
				tr := [3]Ref{m.Var(i), m.Var(j), m.Var(k)}
				s := m.cacheSlot(opITE, tr[0], tr[1], tr[2])
				bySlot[s] = append(bySlot[s], tr)
				if len(bySlot[s]) == want {
					return bySlot[s]
				}
			}
		}
	}
	return nil
}

// TestTwoWayAssociativity pins the probe/store protocol of the two-way
// cache with three keys of one set: the victim way retains the previously
// displaced entry, a victim hit promotes to MRU, and a conflicting store
// evicts the set's least recently used key — exactly once.
func TestTwoWayAssociativity(t *testing.T) {
	m := New(12)
	shrinkCache(m, 256)
	triples := sameSetTriples(m, 3)
	if triples == nil {
		t.Skip("no three colliding ITE triples over 12 variables (hash changed?)")
	}
	// ITE(Var i, Var j, Var k) with distinct i,j,k performs exactly one
	// cached operation: the cofactor recursions bottom out in terminal
	// cases, so the counters below move only for the top-level keys.
	ite := func(tr [3]Ref) { m.ITE(tr[0], tr[1], tr[2]) }
	step := func(tr [3]Ref, wantHit bool) {
		t.Helper()
		h, ms := m.cacheHits, m.cacheMisses
		ite(tr)
		if gotHit := m.cacheHits > h; gotHit != wantHit {
			t.Fatalf("hit=%v, want %v (hits %d->%d, misses %d->%d)",
				gotHit, wantHit, h, m.cacheHits, ms, m.cacheMisses)
		}
	}

	step(triples[0], false) // t0 -> MRU
	step(triples[1], false) // t1 -> MRU, t0 -> victim
	step(triples[0], true)  // victim hit: t0 promoted, t1 demoted
	step(triples[1], true)  // victim hit: t1 promoted, t0 demoted
	evicts := m.cacheEvicts
	step(triples[2], false) // both ways full: evicts the LRU (t0)
	if m.cacheEvicts != evicts+1 {
		t.Fatalf("conflicting store counted %d evictions, want 1", m.cacheEvicts-evicts)
	}
	step(triples[1], true)  // survived in the victim way
	step(triples[0], false) // the LRU was the one displaced
}

// TestCacheEntrySize pins the 20-byte entry: five 4-byte fields and no
// occupancy flag (op code 0 marks an empty way). A flag would pad every
// entry to 24 bytes and grow each manager's default op cache by 256 KiB.
func TestCacheEntrySize(t *testing.T) {
	if got := unsafe.Sizeof(cacheEntry{}); got != 20 {
		t.Fatalf("cacheEntry is %d bytes, want 20", got)
	}
	var empty cacheEntry
	if empty.occupied() {
		t.Fatal("the zero entry must read as an empty way")
	}
}
