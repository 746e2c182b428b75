package stsyn_test

import (
	"errors"
	"strings"
	"testing"

	"stsyn"
	"stsyn/internal/explicit"
	"stsyn/internal/service"
)

func TestSynthesizeTokenRing(t *testing.T) {
	res, eng, err := stsyn.Synthesize(stsyn.TokenRing(4, 3), stsyn.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if v := stsyn.VerifyStronglyStabilizing(eng, res.Protocol); !v.OK {
		t.Fatalf("not stabilizing: %s", v.Reason)
	}
	out := stsyn.Render(eng, res.Protocol)
	for _, want := range []string{"x1 != x0 -> x1 := x0", "x0 == x3 -> x0 := x3 + 1"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered protocol missing %q:\n%s", want, out)
		}
	}
}

func TestCustomProtocolViaPublicAPI(t *testing.T) {
	// A 2-process handshake: I = (a == b); only a is writable by P,
	// only b by Q, each reads both.
	sp := &stsyn.Spec{
		Name: "handshake",
		Vars: []stsyn.Var{{Name: "a", Dom: 3}, {Name: "b", Dom: 3}},
		Procs: []stsyn.Process{
			{Name: "P", Reads: stsyn.SortedIDs(0, 1), Writes: []int{0}},
			{Name: "Q", Reads: stsyn.SortedIDs(0, 1), Writes: []int{1}},
		},
		Invariant: stsyn.Eq{A: stsyn.V{ID: 0}, B: stsyn.V{ID: 1}},
	}
	res, eng, err := stsyn.Synthesize(sp, stsyn.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if v := stsyn.VerifyStronglyStabilizing(eng, res.Protocol); !v.OK {
		t.Fatalf("not stabilizing: %s (witness %v)", v.Reason, v.Witness)
	}
	if len(res.Added) == 0 {
		t.Error("expected recovery groups for the empty protocol")
	}
}

func TestWeakSynthesisPublicAPI(t *testing.T) {
	res, eng, err := stsyn.Synthesize(stsyn.Matching(4), stsyn.Options{Convergence: stsyn.Weak})
	if err != nil {
		t.Fatal(err)
	}
	if v := stsyn.VerifyWeaklyStabilizing(eng, res.Protocol); !v.OK {
		t.Fatalf("not weakly stabilizing: %s", v.Reason)
	}
}

func TestEngineSelection(t *testing.T) {
	// Small spec: both engines must construct; NewEngine must pick one that
	// agrees on basic counts.
	sp := stsyn.TokenRing(4, 3)
	auto, err := stsyn.NewEngine(sp)
	if err != nil {
		t.Fatal(err)
	}
	sym, err := stsyn.NewSymbolicEngine(sp)
	if err != nil {
		t.Fatal(err)
	}
	exp, err := stsyn.NewExplicitEngine(sp, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []stsyn.Engine{auto, sym, exp} {
		if e.States(e.Universe()) != 81 {
			t.Errorf("universe = %v, want 81", e.States(e.Universe()))
		}
		if e.States(e.Invariant()) != 12 {
			t.Errorf("|S1| = %v, want 12", e.States(e.Invariant()))
		}
	}
	// A spec too large for the explicit engine must still get an engine.
	big, err := stsyn.NewEngine(stsyn.Coloring(30))
	if err != nil {
		t.Fatal(err)
	}
	if got := big.States(big.Universe()); got < 2e14 {
		t.Errorf("coloring-30 universe = %g, want 3^30", got)
	}
}

// TestEngineAutoRuleAgrees pins that the library's NewEngine and the
// service's Normalize resolve engine "auto" the same way on both sides of
// the 2^20-state boundary.
func TestEngineAutoRuleAgrees(t *testing.T) {
	// 17 × 61681 = 2^20 + 1: the smallest state space above the boundary.
	above := &stsyn.Spec{
		Name:      "above-auto-limit",
		Vars:      []stsyn.Var{{Name: "a", Dom: 17}, {Name: "b", Dom: 61681}},
		Procs:     []stsyn.Process{{Name: "P", Reads: []int{0}, Writes: []int{0}}},
		Invariant: stsyn.Eq{A: stsyn.V{ID: 0}, B: stsyn.C{Val: 0}},
	}
	for _, tc := range []struct {
		sp     *stsyn.Spec
		states uint64
		want   string
	}{
		{stsyn.TokenRing(10, 4), 1 << 20, "explicit"},
		{above, 1<<20 + 1, "symbolic"},
	} {
		if n, ok := tc.sp.NumStates(); !ok || n != tc.states {
			t.Fatalf("%s: %d states, want %d", tc.sp.Name, n, tc.states)
		}
		e, err := stsyn.NewEngine(tc.sp)
		if err != nil {
			t.Fatal(err)
		}
		lib := "symbolic"
		if _, ok := e.(*explicit.Engine); ok {
			lib = "explicit"
		}
		j, err := service.Normalize(&service.Request{}, tc.sp)
		if err != nil {
			t.Fatal(err)
		}
		if lib != tc.want || j.Engine != tc.want {
			t.Errorf("%s: NewEngine picked %s, Normalize %s; want %s", tc.sp.Name, lib, j.Engine, tc.want)
		}
	}
}

func TestErrorsExposed(t *testing.T) {
	sp := stsyn.TokenRing(4, 3)
	sp.Invariant = stsyn.Not{X: sp.Invariant}
	_, _, err := stsyn.Synthesize(sp, stsyn.Options{})
	if !errors.Is(err, stsyn.ErrNotClosed) {
		t.Fatalf("got %v, want ErrNotClosed", err)
	}
}

func TestScheduleHelpersPublic(t *testing.T) {
	if s := stsyn.DefaultSchedule(4); s[3] != 0 {
		t.Errorf("DefaultSchedule = %v", s)
	}
	if n := len(stsyn.AllSchedules(3)); n != 6 {
		t.Errorf("AllSchedules(3) = %d, want 6", n)
	}
	if n := len(stsyn.Rotations(6)); n != 6 {
		t.Errorf("Rotations(6) = %d", n)
	}
}

func TestTrySchedulesPublic(t *testing.T) {
	sp := stsyn.TwoRingTokenRing()
	factory := func() (stsyn.Engine, error) { return stsyn.NewEngine(sp) }
	best, attempts, err := stsyn.TrySchedules(factory, stsyn.Options{}, stsyn.Rotations(8)[:2], 2)
	if err != nil {
		t.Fatal(err)
	}
	if best == nil {
		t.Fatal("no winner")
	}
	if len(attempts) != 2 {
		t.Fatalf("attempts = %d", len(attempts))
	}
}

func TestDeadlocksPublic(t *testing.T) {
	eng, err := stsyn.NewEngine(stsyn.TokenRing(4, 3))
	if err != nil {
		t.Fatal(err)
	}
	d := stsyn.Deadlocks(eng, eng.ActionGroups())
	if eng.States(d) != 18 {
		t.Errorf("TR(4,3) has %v deadlocks, want 18", eng.States(d))
	}
}
