package symbolic_test

import (
	"testing"

	"stsyn/internal/core"
	"stsyn/internal/protocols"
	"stsyn/internal/symbolic"
)

// ExportSet/ImportSet must round-trip a set between two engines for the
// same spec and variable order, agree on cardinality, and fail closed
// across engines built with different orders (the fingerprint names the
// layout, so a snapshot can never decode into the wrong function).
func TestSetExporterRoundTripAndFingerprint(t *testing.T) {
	sp := protocols.GoudaAcharyaMatching(4)

	src, err := symbolic.New(sp)
	if err != nil {
		t.Fatal(err)
	}
	inv := src.Invariant()
	words := src.ExportSet(inv)
	if len(words) < 2 {
		t.Fatalf("export of a non-trivial set has %d words", len(words))
	}

	// Same-engine import: identical canonical node.
	back, ok := src.ImportSet(words)
	if !ok {
		t.Fatal("engine rejected its own snapshot")
	}
	if !src.Equal(inv, back) {
		t.Error("round trip through the same engine changed the set")
	}

	// Fresh engine, same default order: same states.
	dst, err := symbolic.New(sp)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := dst.ImportSet(words)
	if !ok {
		t.Fatal("fresh engine with the same order rejected the snapshot")
	}
	if dst.States(got) != src.States(inv) {
		t.Errorf("imported set has %v states, want %v", dst.States(got), src.States(inv))
	}

	// Engine under a different variable order: fingerprint mismatch, so the
	// import must be refused rather than silently decode garbage.
	order := symbolic.DefaultVarOrder(sp)
	for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
		order[i], order[j] = order[j], order[i]
	}
	rev, err := symbolic.NewWithOrder(sp, order)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := rev.ImportSet(words); ok {
		t.Error("engine with a different variable order accepted a foreign snapshot")
	}

	// Malformed inputs fail closed too.
	if _, ok := src.ImportSet(nil); ok {
		t.Error("empty snapshot accepted")
	}
	if _, ok := src.ImportSet(words[:1]); ok {
		t.Error("fingerprint-only snapshot accepted")
	}

	// ExportSet/ImportSet are what the cross-schedule memo stores through
	// the core.Engine interface.
	var _ core.Engine = src
}
