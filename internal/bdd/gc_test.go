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

// TestGCKeptRefsSurvive checks the heart of the GC contract: functions held
// via Keep come through a collection with identical truth tables, verified
// by sat-count and by evaluation on random assignments, while a pile of
// unprotected garbage is reclaimed around them.
func TestGCKeptRefsSurvive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const nvars = 8
	m := New(nvars)

	type kept struct {
		f    Ref
		sat  float64
		evls []bool // eval results on the fixed assignment set
	}
	assignments := make([][]bool, 32)
	for i := range assignments {
		a := make([]bool, nvars)
		for j := range a {
			a[j] = rng.Intn(2) == 0
		}
		assignments[i] = a
	}

	var roots []kept
	for i := 0; i < 20; i++ {
		f := m.Keep(randomFunc(m, rng, nvars, 12))
		k := kept{f: f, sat: m.SatCount(f)}
		for _, a := range assignments {
			k.evls = append(k.evls, m.Eval(f, a))
		}
		roots = append(roots, k)
	}
	// Unprotected garbage interleaved with the kept roots.
	for i := 0; i < 50; i++ {
		randomFunc(m, rng, nvars, 20)
	}

	liveBefore := m.Live()
	res := m.GC()
	if res.Reclaimed == 0 {
		t.Fatalf("expected garbage to be reclaimed (live before %d)", liveBefore)
	}
	if res.Live != m.Live() || res.Live >= liveBefore {
		t.Fatalf("GC result live=%d, manager live=%d, before=%d", res.Live, m.Live(), liveBefore)
	}

	for i, k := range roots {
		if got := m.SatCount(k.f); got != k.sat {
			t.Fatalf("root %d: sat-count changed across GC: %g != %g", i, got, k.sat)
		}
		for j, a := range assignments {
			if got := m.Eval(k.f, a); got != k.evls[j] {
				t.Fatalf("root %d assignment %d: eval changed across GC", i, j)
			}
		}
	}

	// Rebuilding a kept function must hit the same node (canonicity).
	for i, k := range roots {
		m.Release(k.f)
		_ = i
	}
	if m.KeptRefs() != 0 {
		t.Fatalf("KeptRefs = %d after releasing everything", m.KeptRefs())
	}
}

// TestGCSlotReuse checks that slots freed by a collection are reused by
// subsequent allocations instead of growing the backing store.
func TestGCSlotReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	const nvars = 10
	m := New(nvars)

	// Phase 1: build garbage, collect with no roots kept.
	for i := 0; i < 40; i++ {
		randomFunc(m, rng, nvars, 15)
	}
	res := m.GC()
	if res.Reclaimed == 0 {
		t.Fatal("nothing reclaimed")
	}
	slots := m.Size()
	free := m.Stats().FreeSlots
	if free == 0 {
		t.Fatal("free list empty after collection")
	}

	// Phase 2: allocate again; the store must not grow until the free list
	// is consumed.
	for m.Stats().FreeSlots > free/2 {
		randomFunc(m, rng, nvars, 5)
		if m.Size() != slots {
			t.Fatalf("backing store grew (%d -> %d) while %d slots were free",
				slots, m.Size(), m.Stats().FreeSlots)
		}
	}
}

// TestGCCanonicityAcrossRehashAndGC checks that hash-consing canonicity is
// preserved by both unique-table rehashing and collection: And(a,b) is
// pointer-equal before and after.
func TestGCCanonicityAcrossRehashAndGC(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const nvars = 12
	m := New(nvars)

	a := m.Keep(randomFunc(m, rng, nvars, 10))
	b := m.Keep(randomFunc(m, rng, nvars, 10))
	ab := m.Keep(m.And(a, b))

	// Force unique-table growth (New starts with 1<<14 buckets; exceed 2x).
	for m.Size() < 3*(1<<14) {
		randomFunc(m, rng, nvars, 25)
	}
	if got := m.And(a, b); got != ab {
		t.Fatalf("And(a,b) changed identity after rehash: %d != %d", got, ab)
	}

	res := m.GC()
	if res.Reclaimed == 0 {
		t.Fatal("nothing reclaimed")
	}
	if got := m.And(a, b); got != ab {
		t.Fatalf("And(a,b) changed identity after GC: %d != %d", got, ab)
	}

	// New structure built after the collection must still dedupe against
	// survivors: rebuilding b from scratch yields the same ref.
	rng2 := rand.New(rand.NewSource(3))
	_ = randomFunc(m, rng2, nvars, 10) // a again
	b2 := randomFunc(m, rng2, nvars, 10)
	if b2 != b {
		t.Fatalf("rebuilding b after GC gave a different ref: %d != %d", b2, b)
	}

	m.Release(a)
	m.Release(b)
	m.Release(ab)
}

// TestReleaseUnkeptPanics checks the protection-discipline tripwire.
func TestReleaseUnkeptPanics(t *testing.T) {
	m := New(4)
	f := m.And(m.Var(0), m.Var(1))
	defer func() {
		if recover() == nil {
			t.Fatal("Release of un-kept ref did not panic")
		}
	}()
	m.Release(f)
}

// TestReleaseTerminalsNoop checks terminals are always live and exempt from
// the refcount discipline.
func TestReleaseTerminalsNoop(t *testing.T) {
	m := New(4)
	m.Release(False)
	m.Release(True)
	m.Keep(False)
	m.Keep(True)
	if m.KeptRefs() != 0 {
		t.Fatalf("terminals entered the ref registry: %d", m.KeptRefs())
	}
	m.GC()
	if m.Live() != 2 {
		t.Fatalf("terminals collected: live=%d", m.Live())
	}
}

// TestKeepIsRefCounted checks nested Keep/Release pairs.
func TestKeepIsRefCounted(t *testing.T) {
	m := New(4)
	f := m.And(m.Var(0), m.Var(1))
	m.Keep(f)
	m.Keep(f)
	m.Release(f)
	m.GC()
	if m.Eval(f, []bool{true, true, false, false}) != true {
		t.Fatal("ref with remaining count collected")
	}
	m.Release(f)
	res := m.GC()
	if res.Reclaimed == 0 {
		t.Fatal("fully released ref not collected")
	}
}

// TestMaybeGCWatermark checks the watermark gate: no collection below it,
// collection at or above it, and disabled when zero.
func TestMaybeGCWatermark(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	m := New(8)
	if _, ran := m.MaybeGC(); ran {
		t.Fatal("MaybeGC collected with watermark disabled")
	}
	for i := 0; i < 10; i++ {
		randomFunc(m, rng, 8, 10)
	}
	m.SetGCWatermark(m.Live() + 1000)
	if _, ran := m.MaybeGC(); ran {
		t.Fatal("MaybeGC collected below the watermark")
	}
	m.SetGCWatermark(2)
	if !m.NeedsGC() {
		t.Fatal("NeedsGC false at watermark")
	}
	res, ran := m.MaybeGC()
	if !ran || res.Reclaimed == 0 {
		t.Fatalf("MaybeGC at watermark: ran=%v reclaimed=%d", ran, res.Reclaimed)
	}
	if m.Stats().GCRuns != 1 || m.GCRuns() != 1 {
		t.Fatalf("Stats().GCRuns = %d, GCRuns() = %d", m.Stats().GCRuns, m.GCRuns())
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
	f := m.Keep(randomFunc(m, rng, 6, 10))
	st := m.Stats()
	if st.NumVars != 6 || st.KeptRefs != 1 {
		t.Fatalf("bad snapshot: %+v", st)
	}
	if st.LiveNodes < 3 || st.PeakLiveNodes < st.LiveNodes {
		t.Fatalf("bad node accounting: %+v", st)
	}
	if st.AllocatedSlots != m.Size() || st.UniqueTableSize == 0 || st.UniqueTableLoad <= 0 {
		t.Fatalf("bad table accounting: %+v", st)
	}
	if st.CacheMisses == 0 {
		t.Fatalf("miss counter never advanced: %+v", st)
	}
	m.Release(f)
}

// TestGCResultsStayCorrect interleaves collections with further computation
// and checks against brute-force evaluation — premature reclamation in a
// hash-consed store corrupts results silently, so this is the tripwire.
func TestGCResultsStayCorrect(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const nvars = 6
	m := New(nvars)
	m.SetGCWatermark(64) // collect aggressively

	for round := 0; round < 30; round++ {
		a := m.Keep(randomFunc(m, rng, nvars, 8))
		b := m.Keep(randomFunc(m, rng, nvars, 8))
		m.MaybeGC()
		c := m.And(a, b)
		// Brute-force check of c = a ∧ b over all 2^6 assignments.
		assign := make([]bool, nvars)
		for bits := 0; bits < 1<<nvars; bits++ {
			for v := 0; v < nvars; v++ {
				assign[v] = bits>>v&1 == 1
			}
			want := m.Eval(a, assign) && m.Eval(b, assign)
			if got := m.Eval(c, assign); got != want {
				t.Fatalf("round %d: And incorrect after GC at assignment %06b", round, bits)
			}
		}
		m.Release(a)
		m.Release(b)
	}
	if m.Stats().GCRuns == 0 {
		t.Fatal("watermark GC never ran")
	}
}
