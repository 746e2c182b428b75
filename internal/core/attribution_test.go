package core_test

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"stsyn/internal/core"
	"stsyn/internal/explicit"
	"stsyn/internal/protocol"
	"stsyn/internal/protocols"
	"stsyn/internal/specgen"
)

// setStates renders the states of a set as a canonical string, so sets of
// different engines compare by content.
func setStates(e core.Engine, x core.Set) string {
	var states []string
	for !e.IsEmpty(x) {
		st, _ := e.PickState(x)
		states = append(states, fmt.Sprint(st))
		x = e.Diff(x, e.Singleton(st))
	}
	sort.Strings(states)
	return strings.Join(states, " ")
}

// attribution renders an SCCGroups result engine-independently: one line
// per component, its states and the keys of its groups, lines sorted (the
// engines enumerate components in different orders).
func attribution(e core.Engine, gs []core.Group, sccs []core.Set, out [][]int) string {
	lines := make([]string, len(sccs))
	for i, scc := range sccs {
		var keys []string
		for _, gi := range out[i] {
			keys = append(keys, string(gs[gi].ProtocolGroup().Key()))
		}
		lines[i] = setStates(e, scc) + " => " + strings.Join(keys, " ")
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// checkAttribution compares SCCGroups with the pairwise oracle on both
// engines, over the SCCs of several group subsets of sp (the action
// groups, all groups, and random subsets) in ¬I and in the whole space,
// attributing to the searched groups and to a random subset of them. The
// engines must also agree with each other: symbolic SCCGroups is the
// pairwise loop itself, so there the check that counts is against the
// explicit engine. It returns the number of (component, group)
// attributions the explicit engine made.
func checkAttribution(t *testing.T, sp *protocol.Spec, seed int64) (hits int) {
	t.Helper()
	rendered := make(map[string][]string)
	for _, kind := range engineKinds {
		e := engineOfKind(t, kind, sp)
		rng := rand.New(rand.NewSource(seed))
		all := append(e.ActionGroups(), e.CandidateGroups()...)
		subsets := [][]core.Group{e.ActionGroups(), all}
		for i := 0; i < 3; i++ {
			var sub []core.Group
			for _, g := range all {
				if rng.Intn(2) == 0 {
					sub = append(sub, g)
				}
			}
			subsets = append(subsets, sub)
		}
		notI := e.Not(e.Invariant())
		for si, sub := range subsets {
			var added []core.Group
			for _, g := range sub {
				if rng.Intn(3) != 0 {
					added = append(added, g)
				}
			}
			for wi, within := range []core.Set{notI, e.Universe()} {
				sccs := e.CyclicSCCs(sub, within)
				for _, gs := range [][]core.Group{sub, added} {
					got := e.SCCGroups(gs, sccs)
					if len(got) != len(sccs) {
						t.Fatalf("%s %s subset %d within %d: %d lists for %d SCCs", sp.Name, kind, si, wi, len(got), len(sccs))
					}
					if want := core.PairwiseSCCGroups(e, gs, sccs); fmt.Sprint(got) != fmt.Sprint(want) {
						t.Fatalf("%s %s subset %d within %d: SCCGroups %v, pairwise probes %v", sp.Name, kind, si, wi, got, want)
					}
					rendered[kind] = append(rendered[kind], attribution(e, gs, sccs, got))
					if kind == "explicit" {
						for _, within := range got {
							hits += len(within)
						}
					}
				}
			}
		}
	}
	if x, s := rendered["explicit"], rendered["symbolic"]; fmt.Sprint(x) != fmt.Sprint(s) {
		t.Fatalf("%s: engines attribute cycles differently:\nexplicit %q\nsymbolic %q", sp.Name, x, s)
	}
	return hits
}

func TestSCCGroupsMatchPairwiseProbes(t *testing.T) {
	for _, sp := range []*protocol.Spec{
		protocols.TokenRing(4, 3),
		protocols.Matching(5),
		protocols.GoudaAcharyaMatching(4),
		protocols.GoudaAcharyaMatching(5),
		protocols.Coloring(5),
	} {
		if checkAttribution(t, sp, 5) == 0 {
			t.Fatalf("%s: no group was attributed to any SCC; the comparison exercised nothing", sp.Name)
		}
	}
	iters := 20
	if testing.Short() {
		iters = 5
	}
	rng := rand.New(rand.NewSource(31))
	hits := 0
	for iter := 0; iter < iters; iter++ {
		hits += checkAttribution(t, specgen.RandomSpec(rng, true), int64(iter))
	}
	if hits == 0 {
		t.Fatal("no random spec attributed a group to an SCC; the comparison exercised nothing")
	}
}

// twoLoopSpec has one process that writes x and reads only x, so each of
// its groups carries one transition per value of the unread y. With
// toggle set, x flips unconditionally: the SCCs are {x=0,x=1} × {y}, and
// both groups have transitions in both. Without it, x=0 keeps x (a no-op
// group, a self-loop at every x=0 state) and x=1 resets it.
func twoLoopSpec(toggle bool) *protocol.Spec {
	eq := func(id, val int) protocol.BoolExpr {
		return protocol.Eq{A: protocol.V{ID: id}, B: protocol.C{Val: val}}
	}
	assign := func(val int) []protocol.Assignment {
		return []protocol.Assignment{{Var: 0, Expr: protocol.C{Val: val}}}
	}
	actions := []protocol.Action{
		{Guard: eq(0, 0), Assigns: assign(0)},
		{Guard: eq(0, 1), Assigns: assign(0)},
	}
	if toggle {
		actions[0].Assigns = assign(1)
	}
	return &protocol.Spec{
		Name: fmt.Sprintf("two-loop-toggle-%v", toggle),
		Vars: []protocol.Var{{Name: "x", Dom: 2}, {Name: "y", Dom: 2}},
		Procs: []protocol.Process{{
			Name: "P", Reads: []int{0}, Writes: []int{0}, Actions: actions,
		}},
		Invariant: protocol.False{},
	}
}

// TestSCCGroupsEdgeCases pins the shapes the heuristic's batches rarely
// isolate: a group with transitions in two SCCs, self-loop SCCs, and empty
// inputs.
func TestSCCGroupsEdgeCases(t *testing.T) {
	for _, kind := range engineKinds {
		// Both toggle groups lie inside both components.
		e := engineOfKind(t, kind, twoLoopSpec(true))
		gs := e.ActionGroups()
		sccs := e.CyclicSCCs(gs, e.Universe())
		if got := fmt.Sprint(e.SCCGroups(gs, sccs)); len(sccs) != 2 || got != "[[0 1] [0 1]]" {
			t.Fatalf("%s toggle: %d SCCs attributed %s, want 2 attributed [[0 1] [0 1]]", kind, len(sccs), got)
		}

		// Self-loops: each x=0 state is its own component, entered only by
		// the no-op group (index 0); the reset group leaves every one.
		e = engineOfKind(t, kind, twoLoopSpec(false))
		gs = e.ActionGroups()
		sccs = e.CyclicSCCs(gs, e.Universe())
		if got := fmt.Sprint(e.SCCGroups(gs, sccs)); len(sccs) != 2 || got != "[[0] [0]]" {
			t.Fatalf("%s self-loop: %d SCCs attributed %s, want 2 attributed [[0] [0]]", kind, len(sccs), got)
		}
		for _, scc := range sccs {
			if e.States(scc) != 1 {
				t.Fatalf("%s self-loop: component of %v states, want 1", kind, e.States(scc))
			}
		}

		if got := e.SCCGroups(gs, nil); len(got) != 0 {
			t.Fatalf("%s: SCCGroups over no SCCs returned %v", kind, got)
		}
		if got := fmt.Sprint(e.SCCGroups(nil, sccs)); got != "[[] []]" {
			t.Fatalf("%s: SCCGroups over no groups returned %s", kind, got)
		}
	}
}

// closedGoudaAcharya is the Gouda–Acharya matching protocol on 5
// processes with I replaced by the states its actions reach from
// all-left: I is closed by construction, the protocol's non-progress
// cycles lie outside it, and some of their groups have groupmates inside
// it, so AddConvergence must stop at ErrUnresolvableCycle.
func closedGoudaAcharya(t *testing.T) *protocol.Spec {
	t.Helper()
	sp := protocols.GoudaAcharyaMatching(5)
	e, err := explicit.New(sp, 0)
	if err != nil {
		t.Fatal(err)
	}
	acts := e.ActionGroups()
	reach := e.Singleton(make(protocol.State, len(sp.Vars)))
	for {
		next := e.Or(reach, e.Post(acts, reach))
		if e.Equal(next, reach) {
			break
		}
		reach = next
	}
	var states []protocol.BoolExpr
	for x := reach; !e.IsEmpty(x); {
		st, _ := e.PickState(x)
		var lits []protocol.BoolExpr
		for id, v := range st {
			lits = append(lits, protocol.Eq{A: protocol.V{ID: id}, B: protocol.C{Val: v}})
		}
		states = append(states, protocol.And{Xs: lits})
		x = e.Diff(x, e.Singleton(st))
	}
	sp.Invariant = protocol.Or{Xs: states}
	return sp
}

// TestUnresolvableCycleMessagePinned pins the ErrUnresolvableCycle message
// byte for byte on both engines. The message names the first SCC in
// CyclicSCCs order and, within it, the first group of the protocol whose
// groupmates reach I, so it changes whenever cycle attribution reorders or
// drops a group.
func TestUnresolvableCycleMessagePinned(t *testing.T) {
	const prefix = "protocol has a non-progress cycle outside I with groupmates inside I: "
	want := map[string]string{
		"explicit": prefix + "cycle through state [0 0 0 0 1] uses group m0==0 && m1==0 && m2==0 -> m1 := 2",
		"symbolic": prefix + "cycle through state [2 2 2 1 0] uses group m0==0 && m1==0 && m4==0 -> m0 := 2",
	}
	sp := closedGoudaAcharya(t)
	for _, kind := range engineKinds {
		_, err := core.AddConvergence(engineOfKind(t, kind, sp), core.Options{})
		if err == nil {
			t.Fatalf("%s: synthesis succeeded, want ErrUnresolvableCycle", kind)
		}
		if w := want[kind]; err.Error() != w {
			t.Fatalf("%s: error\n  %q\nwant\n  %q", kind, err.Error(), w)
		}
	}
}
