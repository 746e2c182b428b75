package explicit

import (
	"math/rand"
	"testing"

	"stsyn/internal/core"
	"stsyn/internal/protocol"
)

// trSpec builds the paper's k-process token ring with the given domain.
func trSpec(k, dom int) *protocol.Spec {
	sp := &protocol.Spec{Name: "token-ring"}
	for i := 0; i < k; i++ {
		sp.Vars = append(sp.Vars, protocol.Var{Name: varName("x", i), Dom: dom})
	}
	sp.Procs = append(sp.Procs, protocol.Process{
		Name:   "P0",
		Reads:  protocol.SortedIDs(0, k-1),
		Writes: []int{0},
		Actions: []protocol.Action{{
			Guard:   protocol.Eq{A: protocol.V{ID: 0}, B: protocol.V{ID: k - 1}},
			Assigns: []protocol.Assignment{{Var: 0, Expr: protocol.AddMod{A: protocol.V{ID: k - 1}, B: protocol.C{Val: 1}, Mod: dom}}},
		}},
	})
	for j := 1; j < k; j++ {
		sp.Procs = append(sp.Procs, protocol.Process{
			Name:   varName("P", j),
			Reads:  protocol.SortedIDs(j-1, j),
			Writes: []int{j},
			Actions: []protocol.Action{{
				Guard:   protocol.Eq{A: protocol.AddMod{A: protocol.V{ID: j}, B: protocol.C{Val: 1}, Mod: dom}, B: protocol.V{ID: j - 1}},
				Assigns: []protocol.Assignment{{Var: j, Expr: protocol.V{ID: j - 1}}},
			}},
		})
	}
	// S1: exactly one token.
	var disj []protocol.BoolExpr
	for holder := 0; holder < k; holder++ {
		var conj []protocol.BoolExpr
		for j := 1; j < k; j++ {
			if j == holder {
				conj = append(conj, protocol.Eq{A: protocol.AddMod{A: protocol.V{ID: j}, B: protocol.C{Val: 1}, Mod: dom}, B: protocol.V{ID: j - 1}})
			} else {
				conj = append(conj, protocol.Eq{A: protocol.V{ID: j}, B: protocol.V{ID: j - 1}})
			}
		}
		if holder == 0 {
			// All equal: P0 holds the token.
		} else {
			// P0 must not also have a token; with exactly one inequality in
			// the chain, x0 != x(k-1) holds automatically.
		}
		disj = append(disj, protocol.Conj(conj...))
	}
	sp.Invariant = protocol.Disj(disj...)
	return sp
}

func varName(prefix string, i int) string {
	if i < 10 {
		return prefix + string(rune('0'+i))
	}
	return prefix + string(rune('0'+i/10)) + string(rune('0'+i%10))
}

func newTR(t *testing.T, k, dom int) *Engine {
	t.Helper()
	e, err := New(trSpec(k, dom), 0)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestInvariantMatchesDirectEvaluation checks the odometer scan that
// builds the invariant against decoding and evaluating every index on its
// own, on the paper's token ring and the group-setup corpus.
func TestInvariantMatchesDirectEvaluation(t *testing.T) {
	for _, sp := range append([]*protocol.Spec{trSpec(4, 3)}, setupCorpus()...) {
		e, err := New(sp, 0)
		if err != nil {
			t.Fatalf("%s: %v", sp.Name, err)
		}
		inv := e.Invariant().(*Bitset)
		s := make(protocol.State, len(sp.Vars))
		for i := uint64(0); i < e.n; i++ {
			e.ix.Decode(i, s)
			if inv.Get(i) != sp.Invariant.EvalBool(s) {
				t.Fatalf("%s: invariant bit %d (%v) disagrees with evaluation", sp.Name, i, s)
			}
		}
	}
	sp := trSpec(4, 3)
	e, err := New(sp, 0)
	if err != nil {
		t.Fatal(err)
	}
	inv := e.Invariant().(*Bitset)
	ix := protocol.NewIndexer(sp)
	// The paper's example: ⟨1,0,0,0⟩ ∈ S1, ⟨0,0,1,2⟩ ∉ S1.
	if !inv.Get(ix.Index(protocol.State{1, 0, 0, 0})) {
		t.Error("⟨1,0,0,0⟩ should be legitimate")
	}
	if inv.Get(ix.Index(protocol.State{0, 0, 1, 2})) {
		t.Error("⟨0,0,1,2⟩ should be illegitimate")
	}
}

// naiveSuccessors computes the successor relation directly from the spec by
// evaluating guards/assignments state by state — an independent oracle for
// Pre/Post.
func naiveSuccessors(sp *protocol.Spec) map[uint64][]uint64 {
	ix := protocol.NewIndexer(sp)
	succ := make(map[uint64][]uint64)
	s := make(protocol.State, len(sp.Vars))
	d := make(protocol.State, len(sp.Vars))
	for i := uint64(0); i < ix.Len(); i++ {
		ix.Decode(i, s)
		for pi := range sp.Procs {
			for _, a := range sp.Procs[pi].Actions {
				if !a.Guard.EvalBool(s) {
					continue
				}
				copy(d, s)
				ok := true
				for _, as := range a.Assigns {
					v := as.Expr.EvalInt(s)
					if v < 0 || v >= sp.Vars[as.Var].Dom {
						ok = false
						break
					}
					d[as.Var] = v
				}
				if ok {
					succ[i] = append(succ[i], ix.Index(d))
				}
			}
		}
	}
	return succ
}

// TestPrePostAgainstNaive compares Pre and Post with the naive successor
// relation over the invariant and over seeded random subsets. The
// invariant alone cannot tell Post from a scan that sets sources instead
// of destinations: it is closed and every state in it is enabled.
func TestPrePostAgainstNaive(t *testing.T) {
	sp := trSpec(4, 3)
	e, err := New(sp, 0)
	if err != nil {
		t.Fatal(err)
	}
	succ := naiveSuccessors(sp)
	gs := e.ActionGroups()

	rng := rand.New(rand.NewSource(5))
	sets := []*Bitset{e.Invariant().(*Bitset)}
	for i := 0; i < 4; i++ {
		sets = append(sets, randomSubset(e, rng))
	}
	for si, x := range sets {
		pre := e.Pre(gs, x).(*Bitset)
		post := e.Post(gs, x).(*Bitset)
		n := x.Len()
		wantPre := NewBitset(n)
		wantPost := NewBitset(n)
		for src, dsts := range succ {
			for _, dst := range dsts {
				if x.Get(dst) {
					wantPre.Set(src)
				}
				if x.Get(src) {
					wantPost.Set(dst)
				}
			}
		}
		if !pre.Equal(wantPre) {
			t.Errorf("set %d: Pre disagrees with naive successor relation", si)
		}
		if !post.Equal(wantPost) {
			t.Errorf("set %d: Post disagrees with naive successor relation", si)
		}
	}
}

func TestEnabledSources(t *testing.T) {
	sp := trSpec(4, 3)
	e, err := New(sp, 0)
	if err != nil {
		t.Fatal(err)
	}
	succ := naiveSuccessors(sp)
	enabled := e.EnabledSources(e.ActionGroups()).(*Bitset)
	for i := uint64(0); i < enabled.Len(); i++ {
		if enabled.Get(i) != (len(succ[i]) > 0) {
			t.Fatalf("EnabledSources wrong at state %d", i)
		}
	}
	// Deadlock from the paper: ⟨0,0,1,2⟩ has no outgoing transition.
	ix := protocol.NewIndexer(sp)
	if enabled.Get(ix.Index(protocol.State{0, 0, 1, 2})) {
		t.Error("⟨0,0,1,2⟩ should be a deadlock")
	}
}

func TestGroupPredicates(t *testing.T) {
	e := newTR(t, 4, 3)
	inv := e.Invariant()
	ninv := e.Not(inv)
	for _, g := range e.ActionGroups() {
		src := e.GroupSrc(g).(*Bitset)
		if src.IsEmpty() {
			t.Fatal("action group with empty source set")
		}
		// Each group of the TR has 9 transitions (3^2 unreadable states).
		if src.Count() != 9 {
			t.Errorf("group source count = %d, want 9", src.Count())
		}
		if !e.GroupFromTo(g, e.Universe(), e.Universe()) {
			t.Error("GroupFromTo(universe, universe) must hold")
		}
		if e.GroupFromTo(g, e.Empty(), e.Universe()) {
			t.Error("GroupFromTo with empty from must fail")
		}
	}
	// The TR's closure: no action group leads from I outside I.
	for _, g := range e.ActionGroups() {
		srcInI := e.And(e.GroupSrc(g), inv)
		if e.IsEmpty(srcInI) {
			continue
		}
		if e.GroupFromTo(g, inv, ninv) {
			t.Error("closure violated: group from I to ¬I")
		}
	}
}

func TestCyclicSCCsCounterProtocol(t *testing.T) {
	// One mod-3 counter: x := x+1 (mod 3) unconditionally → a single 3-cycle.
	sp := &protocol.Spec{
		Name: "counter",
		Vars: []protocol.Var{{Name: "x", Dom: 3}},
		Procs: []protocol.Process{{
			Name: "P", Reads: []int{0}, Writes: []int{0},
			Actions: []protocol.Action{{
				Guard:   protocol.True{},
				Assigns: []protocol.Assignment{{Var: 0, Expr: protocol.AddMod{A: protocol.V{ID: 0}, B: protocol.C{Val: 1}, Mod: 3}}},
			}},
		}},
		Invariant: protocol.Eq{A: protocol.V{ID: 0}, B: protocol.C{Val: 0}},
	}
	e, err := New(sp, 0)
	if err != nil {
		t.Fatal(err)
	}
	sccs := e.CyclicSCCs(e.ActionGroups(), e.Universe())
	if len(sccs) != 1 {
		t.Fatalf("got %d SCCs, want 1", len(sccs))
	}
	if n := e.States(sccs[0]); n != 3 {
		t.Fatalf("SCC has %v states, want 3", n)
	}
	// Restricted to {0,1} the 3-cycle is broken.
	within := bitsetFrom(3, 0, 1)
	if got := e.CyclicSCCs(e.ActionGroups(), within); len(got) != 0 {
		t.Fatalf("restriction should break the cycle, got %d SCCs", len(got))
	}
}

func TestCyclicSCCsSelfLoop(t *testing.T) {
	// x == 1 -> x := 1 is a self-loop group (kept in δp verbatim).
	sp := &protocol.Spec{
		Name: "selfloop",
		Vars: []protocol.Var{{Name: "x", Dom: 2}},
		Procs: []protocol.Process{{
			Name: "P", Reads: []int{0}, Writes: []int{0},
			Actions: []protocol.Action{{
				Guard:   protocol.Eq{A: protocol.V{ID: 0}, B: protocol.C{Val: 1}},
				Assigns: []protocol.Assignment{{Var: 0, Expr: protocol.C{Val: 1}}},
			}},
		}},
		Invariant: protocol.Eq{A: protocol.V{ID: 0}, B: protocol.C{Val: 0}},
	}
	e, err := New(sp, 0)
	if err != nil {
		t.Fatal(err)
	}
	sccs := e.CyclicSCCs(e.ActionGroups(), e.Universe())
	if len(sccs) != 1 {
		t.Fatalf("got %d SCCs, want 1 (self-loop)", len(sccs))
	}
	if n := e.States(sccs[0]); n != 1 {
		t.Fatalf("self-loop SCC has %v states, want 1", n)
	}
}

func TestCyclicSCCsTokenRingLegitimate(t *testing.T) {
	// Inside S1 the token circulates forever: the legitimate states are
	// covered by cycles (the dynamics restricted to I is a permutation).
	e := newTR(t, 4, 3)
	inv := e.Invariant().(*Bitset)
	sccs := e.CyclicSCCs(e.ActionGroups(), inv)
	if len(sccs) == 0 {
		t.Fatal("expected cycles inside I")
	}
	union := NewBitset(inv.Len())
	for _, s := range sccs {
		union = union.Or(s.(*Bitset))
	}
	if !union.Equal(inv) {
		t.Errorf("cycles cover %d of %d legitimate states", union.Count(), inv.Count())
	}
	// Stats must have accumulated.
	if e.Stats().SCCCalls == 0 || e.Stats().SCCCount == 0 {
		t.Error("stats not recorded")
	}
}

func TestPickState(t *testing.T) {
	e := newTR(t, 4, 3)
	if _, ok := e.PickState(e.Empty()); ok {
		t.Error("PickState on empty set must fail")
	}
	s, ok := e.PickState(e.Invariant())
	if !ok {
		t.Fatal("PickState on invariant failed")
	}
	if !e.Spec().Invariant.EvalBool(s) {
		t.Errorf("picked state %v not in invariant", s)
	}
}

func TestCandidateGroupsExcludeNoops(t *testing.T) {
	e := newTR(t, 4, 3)
	for _, g := range e.CandidateGroups() {
		if g.ProtocolGroup().IsNoop(e.Spec()) {
			t.Fatalf("candidate group %v is a no-op", g.ProtocolGroup())
		}
	}
	// 4 processes × 18 candidates each.
	if n := len(e.CandidateGroups()); n != 72 {
		t.Errorf("candidate count = %d, want 72", n)
	}
}

func TestProgramSize(t *testing.T) {
	e := newTR(t, 4, 3)
	// 12 action groups × 9 transitions each.
	if n := e.ProgramSize(e.ActionGroups()); n != 108 {
		t.Errorf("ProgramSize = %d, want 108", n)
	}
}

func TestTooLargeStateSpace(t *testing.T) {
	sp := trSpec(4, 3)
	if _, err := New(sp, 10); err == nil {
		t.Error("expected error for tiny maxStates limit")
	}
}

var _ core.Engine = (*Engine)(nil)
