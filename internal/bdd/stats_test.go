package bdd

import (
	"math/rand"
	"testing"
)

// randomFunc builds a random BDD over nvars variables by combining literals
// with random connectives; depth controls how many combination steps occur.
func randomFunc(m *Manager, rng *rand.Rand, nvars, depth int) Ref {
	lit := func() Ref {
		v := rng.Intn(nvars)
		if rng.Intn(2) == 0 {
			return m.NVar(v)
		}
		return m.Var(v)
	}
	f := lit()
	for i := 0; i < depth; i++ {
		g := lit()
		switch rng.Intn(4) {
		case 0:
			f = m.And(f, g)
		case 1:
			f = m.Or(f, g)
		case 2:
			f = m.Xor(f, g)
		default:
			f = m.ITE(g, f, m.Not(f))
		}
	}
	return f
}

// TestCanonicityAcrossRehash checks that hash-consing canonicity survives
// unique-table rehashing: And(a,b) is pointer-equal before and after, and
// structure rebuilt afterwards dedupes against the nodes already stored.
func TestCanonicityAcrossRehash(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const nvars = 12
	m := New(nvars)

	a := randomFunc(m, rng, nvars, 10)
	b := randomFunc(m, rng, nvars, 10)
	ab := m.And(a, b)

	// Force unique-table growth (New starts with 1<<14 buckets; exceed 2x).
	buckets := len(m.buckets)
	for m.Size() < 3*(1<<14) {
		randomFunc(m, rng, nvars, 25)
	}
	if len(m.buckets) == buckets {
		t.Fatal("the unique table never grew")
	}
	if got := m.And(a, b); got != ab {
		t.Fatalf("And(a,b) changed identity after rehash: %d != %d", got, ab)
	}
	rng2 := rand.New(rand.NewSource(3))
	_ = randomFunc(m, rng2, nvars, 10) // a again
	if b2 := randomFunc(m, rng2, nvars, 10); b2 != b {
		t.Fatalf("rebuilding b after rehash gave a different ref: %d != %d", b2, b)
	}
}

// TestCacheCountersAndGrowth checks hit/miss/evict accounting under
// conflict pressure while the node store grows.
func TestCacheCountersAndGrowth(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := New(10)
	shrinkCache(m, 256) // so conflicts are easy to provoke

	for i := 0; i < 60; i++ {
		randomFunc(m, rng, 10, 20)
	}
	st := m.Stats()
	if st.CacheHits == 0 || st.CacheMisses == 0 {
		t.Fatalf("expected both hits and misses: %+v", st)
	}
	if st.CacheEvictions == 0 {
		t.Fatalf("expected evictions in a 256-entry cache: %+v", st)
	}
	if st.CacheSize != 256 {
		t.Fatalf("cache size changed under pressure: size=%d", st.CacheSize)
	}
	if st.CacheHitRate <= 0 || st.CacheHitRate >= 1 {
		t.Fatalf("implausible hit rate %f", st.CacheHitRate)
	}
}

// TestStatsSnapshot sanity-checks the remaining Stats fields.
func TestStatsSnapshot(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	m := New(6)
	randomFunc(m, rng, 6, 10)
	st := m.Stats()
	if st.NumVars != 6 {
		t.Fatalf("bad snapshot: %+v", st)
	}
	if st.LiveNodes < 3 || st.LiveNodes != m.Size() {
		t.Fatalf("bad node accounting: %+v", st)
	}
	if st.UniqueTableSize == 0 || st.UniqueTableLoad <= 0 {
		t.Fatalf("bad table accounting: %+v", st)
	}
	if st.CacheMisses == 0 {
		t.Fatalf("miss counter never advanced: %+v", st)
	}
}
