package explicit

import (
	"math/rand"
	"testing"

	"stsyn/internal/core"
	"stsyn/internal/protocol"
	"stsyn/internal/protocols"
	"stsyn/internal/specgen"
)

// mixedDeltaSpec is a five-variable protocol over mixed domains (2, 3, 4,
// 5, 3; index weights 240, 60, 15, 3, 1) whose actions give groups of
// different processes, with different write sets, one common index delta:
//
//	P0: b < 2 ∧ c > 0 → b, c := b+1, c−1     Δ = 60 − 15 = 45
//	P1: c = 0         → c := 3               Δ = 3·15    = 45
//	P2: d < 4 ∧ e = 2 → d, e := d+1, 0       Δ = 3 − 2   = 1
//	P3: e < 2         → e := e+1             Δ = 1
//
// so delta clusters span processes. The universe of 360 states covers six
// bitset words, and the deltas cross word boundaries.
func mixedDeltaSpec() *protocol.Spec {
	const a, b, c, d, e = 0, 1, 2, 3, 4
	v := func(id int) protocol.IntExpr { return protocol.V{ID: id} }
	k := func(x int) protocol.IntExpr { return protocol.C{Val: x} }
	return &protocol.Spec{
		Name: "mixed-delta",
		Vars: []protocol.Var{{Name: "a", Dom: 2}, {Name: "b", Dom: 3}, {Name: "c", Dom: 4}, {Name: "d", Dom: 5}, {Name: "e", Dom: 3}},
		Procs: []protocol.Process{
			{Name: "P0", Reads: []int{a, b, c}, Writes: []int{b, c}, Actions: []protocol.Action{{
				Guard: protocol.Conj(protocol.Lt{A: v(b), B: k(2)}, protocol.Lt{A: k(0), B: v(c)}),
				Assigns: []protocol.Assignment{
					{Var: b, Expr: protocol.AddMod{A: v(b), B: k(1), Mod: 3}},
					{Var: c, Expr: protocol.SubMod{A: v(c), B: k(1), Mod: 4}},
				},
			}}},
			{Name: "P1", Reads: []int{c, d}, Writes: []int{c}, Actions: []protocol.Action{{
				Guard:   protocol.Eq{A: v(c), B: k(0)},
				Assigns: []protocol.Assignment{{Var: c, Expr: k(3)}},
			}}},
			{Name: "P2", Reads: []int{d, e}, Writes: []int{d, e}, Actions: []protocol.Action{{
				Guard: protocol.Conj(protocol.Lt{A: v(d), B: k(4)}, protocol.Eq{A: v(e), B: k(2)}),
				Assigns: []protocol.Assignment{
					{Var: d, Expr: protocol.AddMod{A: v(d), B: k(1), Mod: 5}},
					{Var: e, Expr: k(0)},
				},
			}}},
			{Name: "P3", Reads: []int{a, e}, Writes: []int{e}, Actions: []protocol.Action{{
				Guard:   protocol.Lt{A: v(e), B: k(2)},
				Assigns: []protocol.Assignment{{Var: e, Expr: protocol.AddMod{A: v(e), B: k(1), Mod: 3}}},
			}}},
		},
		Invariant: protocol.Conj(protocol.Eq{A: v(b), B: k(0)}, protocol.Eq{A: v(e), B: k(0)}),
	}
}

// perGroupTrim is the cycle-core fixpoint computed one group at a time
// with the per-state scans: the oracle for trimCore's delta clusters.
func perGroupTrim(e *Engine, gs []core.Group, w *Bitset) *Bitset {
	cc := w.Clone()
	for {
		succ, pred := NewBitset(e.n), NewBitset(e.n)
		for _, g := range gs {
			e.preScan(g.(*group), cc, succ)
			e.postScan(g.(*group), cc, pred)
		}
		next := succ.And(pred).And(cc)
		if next.Equal(cc) {
			return cc
		}
		cc = next
	}
}

// TestMixedDeltaClustersSpanProcesses pins the property the mixed-delta
// corpus spec exists for: its action groups fall into delta clusters
// that hold groups of more than one process.
func TestMixedDeltaClustersSpanProcesses(t *testing.T) {
	e, err := New(mixedDeltaSpec(), 0)
	if err != nil {
		t.Fatal(err)
	}
	procs := make(map[int64]map[int]bool)
	for _, g := range e.ActionGroups() {
		gg := g.(*group)
		if procs[gg.sdelta] == nil {
			procs[gg.sdelta] = make(map[int]bool)
		}
		procs[gg.sdelta][gg.Proc()] = true
	}
	for _, delta := range []int64{45, 1} {
		if len(procs[delta]) < 2 {
			t.Errorf("delta %d: action groups of processes %v, want at least two", delta, procs[delta])
		}
	}
	if got := len(e.deltaClusters(e.ActionGroups())); got != len(procs) {
		t.Errorf("deltaClusters built %d clusters, want %d", got, len(procs))
	}
}

// TestTrimCoreMatchesPerGroupTrim compares the clustered trim against the
// per-group oracle fixpoint — the core sets themselves, not only the SCCs
// found in them — over random group subsets and random restriction sets.
// One engine serves every call, so the reused mask buffer is exercised
// with cluster counts that grow and shrink between calls.
func TestTrimCoreMatchesPerGroupTrim(t *testing.T) {
	specs := []*protocol.Spec{
		mixedDeltaSpec(),
		protocols.TokenRing(4, 3),
		protocols.Matching(5),
		protocols.Coloring(5),
		protocols.TwoRingTokenRing(),
	}
	for seed := int64(0); seed < 10; seed++ {
		specs = append(specs, specgen.RandomSpec(rand.New(rand.NewSource(seed)), true))
	}
	for si, sp := range specs {
		e, err := New(sp, 0)
		if err != nil {
			t.Fatalf("%s: %v", sp.Name, err)
		}
		rng := rand.New(rand.NewSource(int64(si)))
		all := append(e.ActionGroups(), e.CandidateGroups()...)
		trials := 8
		if e.n > 1<<12 {
			trials = 2 // the per-state oracle is slow on the two-ring
		}
		for trial := 0; trial < trials; trial++ {
			gs := all
			if trial > 0 {
				gs = nil
				for _, g := range all {
					if rng.Intn(trial+1) == 0 {
						gs = append(gs, g)
					}
				}
			}
			for wi, w := range []*Bitset{e.universe, e.Not(e.inv).(*Bitset), randomSubset(e, rng)} {
				got := e.trimCore(gs, w)
				want := perGroupTrim(e, gs, w)
				if !got.Equal(want) {
					t.Fatalf("%s trial %d set %d: clustered core (%d states) != per-group core (%d states)",
						sp.Name, trial, wi, got.Count(), want.Count())
				}
			}
		}
	}
}
