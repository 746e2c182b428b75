package explicit

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"stsyn/internal/core"
	"stsyn/internal/protocol"
	"stsyn/internal/protocols"
	"stsyn/internal/specgen"
	"stsyn/internal/verify"
)

// TestShiftInto exercises the word-level shift kernel directly: positive,
// negative and zero deltas, across word boundaries, and aliased in place.
func TestShiftInto(t *testing.T) {
	const n = 200
	elems := []uint64{0, 1, 63, 64, 65, 100, 127, 128, 199}
	for _, delta := range []int64{0, 1, -1, 63, -63, 64, -64, 65, -65, 130, -130, 199, -199, 300, -300} {
		src := NewBitset(n)
		for _, i := range elems {
			src.Set(i)
		}
		want := NewBitset(n)
		for _, i := range elems {
			if j := int64(i) + delta; j >= 0 && j < n {
				want.Set(uint64(j))
			}
		}
		got := NewBitset(n).ShiftInto(src, delta)
		if !got.Equal(want) {
			t.Errorf("ShiftInto(delta=%d) wrong result", delta)
		}
		// Aliased: shift src in place.
		if !src.ShiftInto(src, delta).Equal(want) {
			t.Errorf("ShiftInto(delta=%d) aliased in-place result differs", delta)
		}
	}
}

// TestInPlacePrimitives checks the destructive primitives against their
// allocating counterparts on random sets.
func TestInPlacePrimitives(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n = 321
	randSet := func() *Bitset {
		b := NewBitset(n)
		for i := uint64(0); i < n; i++ {
			if rng.Intn(3) == 0 {
				b.Set(i)
			}
		}
		return b
	}
	for trial := 0; trial < 50; trial++ {
		a, b := randSet(), randSet()
		if got, want := a.Clone().OrInPlace(b), a.Or(b); !got.Equal(want) {
			t.Fatal("OrInPlace disagrees with Or")
		}
		if got, want := NewBitset(n).AndNotInto(a, b), a.Diff(b); !got.Equal(want) {
			t.Fatal("AndNotInto disagrees with Diff")
		}
		if got, want := a.Intersects(b), !a.And(b).IsEmpty(); got != want {
			t.Fatal("Intersects disagrees with And+IsEmpty")
		}
		if !a.Clone().ClearAll().IsEmpty() {
			t.Fatal("ClearAll left elements behind")
		}
	}
}

// randomSubset returns a random subset of the engine's universe.
func randomSubset(e *Engine, rng *rand.Rand) *Bitset {
	b := NewBitset(e.n)
	for i := uint64(0); i < e.n; i++ {
		if rng.Intn(4) != 0 {
			b.Set(i)
		}
	}
	return b
}

// componentFingerprints renders a component list as a sorted slice of
// canonical strings, so two SCC searches can be compared regardless of the
// order they emit components in.
func componentFingerprints(sccs []core.Set) []string {
	out := make([]string, 0, len(sccs))
	for _, s := range sccs {
		var elems []uint64
		s.(*Bitset).ForEach(func(i uint64) bool {
			elems = append(elems, i)
			return true
		})
		out = append(out, fmt.Sprint(elems))
	}
	sort.Strings(out)
	return out
}

// checkKernelEquivalence asserts that the word-level shift kernels agree
// bit-for-bit with the oracle (refEngine) on sp: image operations, group
// tests, the trimmed SCC search and cycle attribution, over the invariant,
// its complement, the universe, the empty set and a batch of random sets.
// It reports whether its group list named some group twice.
func checkKernelEquivalence(t *testing.T, sp *protocol.Spec, seed int64) (repeats bool) {
	t.Helper()
	kern, err := New(sp, 0)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ref := newRefEngine(t, sp)

	rng := rand.New(rand.NewSource(seed))
	sets := []*Bitset{
		kern.Invariant().(*Bitset),
		kern.Not(kern.Invariant()).(*Bitset),
		kern.Universe().(*Bitset),
		kern.Empty().(*Bitset),
	}
	for i := 0; i < 4; i++ {
		sets = append(sets, randomSubset(kern, rng))
	}

	kgs := append(kern.ActionGroups(), kern.CandidateGroups()...)
	rgs := append(ref.ActionGroups(), ref.CandidateGroups()...)
	if len(kgs) != len(rgs) {
		t.Fatalf("engines disagree on group count: %d vs %d", len(kgs), len(rgs))
	}
	seen := make(map[core.Group]bool, len(kgs))
	for _, g := range kgs {
		repeats = repeats || seen[g]
		seen[g] = true
	}

	for si, x := range sets {
		if got, want := kern.Pre(kgs, x).(*Bitset), ref.Pre(rgs, x).(*Bitset); !got.Equal(want) {
			t.Fatalf("set %d: Pre kernel != reference", si)
		}
		if got, want := kern.Post(kgs, x).(*Bitset), ref.Post(rgs, x).(*Bitset); !got.Equal(want) {
			t.Fatalf("set %d: Post kernel != reference", si)
		}
		sccs := kern.CyclicSCCs(kgs, x)
		got := componentFingerprints(sccs)
		want := componentFingerprints(ref.CyclicSCCs(rgs, x))
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("set %d: trimmed CyclicSCCs %v != reference %v", si, got, want)
		}
		// Cycle attribution: the labelled walk against the oracle's
		// per-pair probes, over the components and over x alone.
		for _, ss := range [][]core.Set{sccs, {x}} {
			if got, want := kern.SCCGroups(kgs, ss), ref.SCCGroups(rgs, ss); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("set %d: SCCGroups kernel %v != reference %v", si, got, want)
			}
		}
		for gi := range kgs {
			if got, want := kern.GroupDstInto(kgs[gi], x), ref.GroupDstInto(rgs[gi], x); got != want {
				t.Fatalf("set %d group %d: GroupDstInto kernel %v != reference %v", si, gi, got, want)
			}
			if got, want := kern.GroupSrcIntersects(kgs[gi], x), ref.GroupSrcIntersects(rgs[gi], x); got != want {
				t.Fatalf("set %d group %d: GroupSrcIntersects kernel %v != reference %v", si, gi, got, want)
			}
		}
	}
	// GroupFromTo across random (from, to) pairs.
	for trial := 0; trial < 4; trial++ {
		from, to := randomSubset(kern, rng), randomSubset(kern, rng)
		for gi := range kgs {
			if got, want := kern.GroupFromTo(kgs[gi], from, to), ref.GroupFromTo(rgs[gi], from, to); got != want {
				t.Fatalf("trial %d group %d: GroupFromTo kernel %v != reference %v", trial, gi, got, want)
			}
		}
	}
	if got, want := kern.EnabledSources(kgs).(*Bitset), ref.EnabledSources(rgs).(*Bitset); !got.Equal(want) {
		t.Fatal("EnabledSources kernel != reference")
	}
	// Source sets one group at a time, materialized and OR-ed into a
	// random set, which the sparse groups answer without a cached bitset.
	x := randomSubset(kern, rng)
	for gi := range kgs {
		if !kern.GroupSrc(kgs[gi]).(*Bitset).Equal(ref.GroupSrc(rgs[gi]).(*Bitset)) {
			t.Fatalf("group %d: GroupSrc kernel != reference", gi)
		}
		got, want := x.Clone(), x.Clone()
		kern.OrSrcInto(got, kgs[gi])
		ref.OrSrcInto(want, rgs[gi])
		if !got.Equal(want) {
			t.Fatalf("group %d: OrSrcInto kernel != reference", gi)
		}
	}
	checkSparseSourcesImplicit(t, kern)
	return repeats
}

// checkSparseSourcesImplicit fails if a sparse group of e holds a source
// bitset: sparse groups are answered from their source box and must never
// cost a universe-sized set.
func checkSparseSourcesImplicit(t *testing.T, e *Engine) {
	t.Helper()
	for _, g := range e.all {
		if e.sparse(g) && g.srcSet != nil {
			t.Fatalf("sparse group %d (%d sources over %d words) holds a cached bitset", g.id, g.srcCount, e.nwords)
		}
	}
}

// TestSparseGroupSourcesStayImplicit runs synthesis and verification on
// the two-ring, whose groups are almost all sparse, and on generated
// specs, and checks that no sparse group ended up with a cached source
// set. The generated specs' universes span one or two
// words, so their groups are all dense and every source set is cached:
// they guard the sparse rule from the other side.
func TestSparseGroupSourcesStayImplicit(t *testing.T) {
	specs := []*protocol.Spec{protocols.TwoRingTokenRing()}
	for seed := int64(0); seed < 4; seed++ {
		specs = append(specs, specgen.RandomSpec(rand.New(rand.NewSource(seed)), true))
	}
	for i, sp := range specs {
		e, err := New(sp, 0)
		if err != nil {
			t.Fatalf("%s: %v", sp.Name, err)
		}
		if res, err := core.AddConvergence(e, core.Options{}); err == nil {
			if v := verify.StronglyStabilizing(e, res.Protocol); !v.OK {
				t.Fatalf("%s: synthesized protocol rejected: %s", sp.Name, v.Reason)
			}
		}
		checkSparseSourcesImplicit(t, e)
		if i == 0 {
			sparse := 0
			for _, g := range e.all {
				if e.sparse(g) {
					sparse++
				}
			}
			if sparse < len(e.all)/2 {
				t.Fatalf("%s: only %d of %d groups are sparse; the test exercises too little", sp.Name, sparse, len(e.all))
			}
		}
	}
}

func TestKernelEquivalenceBuiltins(t *testing.T) {
	// An action group is also a candidate, so the engine interns it once
	// and the group list names it twice: on the specs marked repeats, the
	// images must fold a repeated group as the oracle does. The spec marked
	// wordFill has dense groups whose source fill shifts both within and
	// across words (see coversWordFill); the oracle's per-state GroupSrc
	// checks that fill.
	for _, tc := range []struct {
		name     string
		sp       *protocol.Spec
		repeats  bool
		wordFill bool
	}{
		{"token-ring-4-3", protocols.TokenRing(4, 3), true, false},
		{"matching-5", protocols.Matching(5), false, false},
		{"coloring-5", protocols.Coloring(5), false, false},
		{"two-ring", protocols.TwoRingTokenRing(), true, false},
		{"mixed-delta", mixedDeltaSpec(), true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.wordFill {
				e, err := New(tc.sp, 0)
				if err != nil {
					t.Fatal(err)
				}
				if !coversWordFill(e) {
					t.Fatal("no dense group with mixed unread domains and weights on both sides of 64")
				}
			}
			if !checkKernelEquivalence(t, tc.sp, 11) && tc.repeats {
				t.Fatal("the group list names no group twice")
			}
		})
	}
}

// TestKernelEquivalenceRandom runs the same battery over a corpus of random
// protocols from the shared generator.
func TestKernelEquivalenceRandom(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		sp := specgen.RandomSpec(rng, true)
		checkKernelEquivalence(t, sp, seed)
	}
}

// FuzzKernelEquivalence is the coverage-guided version: the fuzzer explores
// random-spec seeds the fixed corpus missed.
func FuzzKernelEquivalence(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		sp := specgen.RandomSpec(rng, true)
		if err := sp.Validate(); err != nil {
			t.Skip()
		}
		checkKernelEquivalence(t, sp, seed)
	})
}

// TestMutableSetsCapability checks the core.MutableSets implementation
// against the allocating operations.
func TestMutableSetsCapability(t *testing.T) {
	e, err := New(protocols.Coloring(4), 0)
	if err != nil {
		t.Fatal(err)
	}
	var ms core.MutableSets = e
	inv := e.Invariant()
	dup := ms.Dup(inv)
	if !e.Equal(dup, inv) {
		t.Fatal("Dup is not equal to its source")
	}
	notInv := e.Not(inv)
	ms.OrInto(dup, notInv)
	if !e.Equal(dup, e.Universe()) {
		t.Fatal("OrInto(I, ¬I) should be the universe")
	}
	if !e.Equal(inv, e.Invariant()) {
		t.Fatal("OrInto mutated its source")
	}
	ms.DiffInto(dup, notInv)
	if !e.Equal(dup, inv) {
		t.Fatal("DiffInto(U, ¬I) should be I")
	}
	g := e.CandidateGroups()[0]
	empty := e.Empty()
	ms.OrSrcInto(empty, g)
	if !e.Equal(empty, e.GroupSrc(g)) {
		t.Fatal("OrSrcInto(∅, g) should equal GroupSrc(g)")
	}
}

// TestSCCGroupsLabelWrap drives the pooled label array across the point
// where its labels would overflow: the array is zeroed and relabelled, and
// no label of an earlier call may leak into a later one.
func TestSCCGroupsLabelWrap(t *testing.T) {
	sp := protocols.GoudaAcharyaMatching(5)
	kern, err := New(sp, 0)
	if err != nil {
		t.Fatal(err)
	}
	ref := newRefEngine(t, sp)
	gs := append(kern.ActionGroups(), kern.CandidateGroups()...)
	sccs := kern.CyclicSCCs(kern.ActionGroups(), kern.Not(kern.Invariant()))
	if len(sccs) < 2 {
		t.Fatalf("want several components, got %d", len(sccs))
	}
	want := fmt.Sprint(ref.SCCGroups(gs, sccs))
	kern.SCCGroups(gs, sccs) // allocate the label array
	kern.nextLabel = math.MaxInt32 - int32(len(sccs)) - 1
	for call := 0; call < 3; call++ {
		// The first call fits below the limit, the second wraps, and the
		// third runs on the relabelled array; the last two drop sccs[0] so
		// a stale label of it would show.
		ss := sccs
		if call > 0 {
			ss = sccs[1:]
			want = fmt.Sprint(ref.SCCGroups(gs, ss))
		}
		if got := fmt.Sprint(kern.SCCGroups(gs, ss)); got != want {
			t.Fatalf("call %d (next label %d): SCCGroups %s, want %s", call, kern.nextLabel, got, want)
		}
	}
	if kern.nextLabel > int32(3*len(sccs)) {
		t.Fatalf("labels never wrapped: next label %d", kern.nextLabel)
	}
}
