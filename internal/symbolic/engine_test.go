package symbolic_test

import (
	"fmt"
	"math/rand"
	"testing"

	"stsyn/internal/core"
	"stsyn/internal/explicit"
	"stsyn/internal/protocol"
	"stsyn/internal/protocols"
	"stsyn/internal/specgen"
	"stsyn/internal/symbolic"
	"stsyn/internal/verify"
)

func newPair(t *testing.T, sp *protocol.Spec) (*symbolic.Engine, *explicit.Engine) {
	t.Helper()
	se, err := symbolic.New(sp)
	if err != nil {
		t.Fatal(err)
	}
	ee, err := explicit.New(sp, 0)
	if err != nil {
		t.Fatal(err)
	}
	return se, ee
}

// sameSet compares a symbolic and an explicit set by membership over the
// whole (small) state space.
func sameSet(t *testing.T, se *symbolic.Engine, ss core.Set, ee *explicit.Engine, es core.Set, what string) {
	t.Helper()
	sp := se.Spec()
	ix := protocol.NewIndexer(sp)
	s := make(protocol.State, len(sp.Vars))
	for i := uint64(0); i < ix.Len(); i++ {
		ix.Decode(i, s)
		inSym := !se.IsEmpty(se.And(ss, se.Singleton(s)))
		inExp := !ee.IsEmpty(ee.And(es, ee.Singleton(s)))
		if inSym != inExp {
			t.Fatalf("%s: engines disagree at %v (symbolic=%v explicit=%v)", what, s, inSym, inExp)
		}
	}
}

func TestBasicSetsAgree(t *testing.T) {
	for _, sp := range []*protocol.Spec{
		protocols.TokenRing(4, 3),
		protocols.Matching(4),
		protocols.Coloring(4),
		protocols.GoudaAcharyaMatching(4),
	} {
		se, ee := newPair(t, sp)
		if su, eu := se.States(se.Universe()), ee.States(ee.Universe()); su != eu {
			t.Fatalf("%s: universe %v vs %v", sp.Name, su, eu)
		}
		if si, ei := se.States(se.Invariant()), ee.States(ee.Invariant()); si != ei {
			t.Fatalf("%s: invariant %v vs %v", sp.Name, si, ei)
		}
		sameSet(t, se, se.Invariant(), ee, ee.Invariant(), sp.Name+" invariant")
		sameSet(t, se, se.Not(se.Invariant()), ee, ee.Not(ee.Invariant()), sp.Name+" ¬invariant")
	}
}

func TestGroupsAgree(t *testing.T) {
	sp := protocols.TokenRing(4, 3)
	se, ee := newPair(t, sp)
	sgs, egs := se.ActionGroups(), ee.ActionGroups()
	if len(sgs) != len(egs) {
		t.Fatalf("action groups: %d vs %d", len(sgs), len(egs))
	}
	for i := range sgs {
		if sgs[i].ProtocolGroup().Key() != egs[i].ProtocolGroup().Key() {
			t.Fatalf("group order differs at %d", i)
		}
		sameSet(t, se, se.GroupSrc(sgs[i]), ee, ee.GroupSrc(egs[i]), "group src")
	}
	if len(se.CandidateGroups()) != len(ee.CandidateGroups()) {
		t.Fatal("candidate group counts differ")
	}
}

func TestImageOpsAgree(t *testing.T) {
	for _, sp := range []*protocol.Spec{
		protocols.TokenRing(4, 3),
		protocols.GoudaAcharyaMatching(4),
		protocols.TokenRing(3, 4),
	} {
		se, ee := newPair(t, sp)
		sgs, egs := se.ActionGroups(), ee.ActionGroups()
		for _, tc := range []struct {
			sset core.Set
			eset core.Set
			name string
		}{
			{se.Invariant(), ee.Invariant(), "I"},
			{se.Not(se.Invariant()), ee.Not(ee.Invariant()), "¬I"},
			{se.Universe(), ee.Universe(), "U"},
		} {
			sameSet(t, se, se.Pre(sgs, tc.sset), ee, ee.Pre(egs, tc.eset), sp.Name+" Pre "+tc.name)
			sameSet(t, se, se.Post(sgs, tc.sset), ee, ee.Post(egs, tc.eset), sp.Name+" Post "+tc.name)
		}
		sameSet(t, se, se.EnabledSources(sgs), ee, ee.EnabledSources(egs), sp.Name+" enabled")
		sameSet(t, se, core.Deadlocks(se, sgs), ee, core.Deadlocks(ee, egs), sp.Name+" deadlocks")
	}
}

func TestGroupPredicatesAgree(t *testing.T) {
	sp := protocols.TokenRing(4, 3)
	se, ee := newPair(t, sp)
	sI, eI := se.Invariant(), ee.Invariant()
	snI, enI := se.Not(sI), ee.Not(eI)
	sgs, egs := se.CandidateGroups(), ee.CandidateGroups()
	for i := range sgs {
		if got, want := se.GroupFromTo(sgs[i], snI, sI), ee.GroupFromTo(egs[i], enI, eI); got != want {
			t.Fatalf("GroupFromTo disagrees on %v", sgs[i].ProtocolGroup())
		}
		if got, want := se.GroupDstInto(sgs[i], sI), ee.GroupDstInto(egs[i], eI); got != want {
			t.Fatalf("GroupDstInto disagrees on %v", sgs[i].ProtocolGroup())
		}
	}
	got := se.SCCGroups(sgs, []core.Set{snI, sI})
	want := ee.SCCGroups(egs, []core.Set{enI, eI})
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("SCCGroups over {¬I, I}: symbolic %v, explicit %v", got, want)
	}
}

func TestRanksAgree(t *testing.T) {
	for _, sp := range []*protocol.Spec{
		protocols.TokenRing(4, 3),
		protocols.Matching(4),
		protocols.Coloring(4),
	} {
		se, ee := newPair(t, sp)
		spim := core.Pim(se, se.ActionGroups())
		epim := core.Pim(ee, ee.ActionGroups())
		sranks, sinf := core.ComputeRanks(se, spim)
		eranks, einf := core.ComputeRanks(ee, epim)
		if len(sranks) != len(eranks) {
			t.Fatalf("%s: M %d vs %d", sp.Name, len(sranks)-1, len(eranks)-1)
		}
		for i := range sranks {
			sameSet(t, se, sranks[i], ee, eranks[i], sp.Name+" rank")
		}
		if se.IsEmpty(sinf) != ee.IsEmpty(einf) {
			t.Fatalf("%s: infinite-rank disagreement", sp.Name)
		}
	}
}

func TestCyclicSCCsAgree(t *testing.T) {
	// The Gouda-Acharya protocol has real cycles outside I — the hard case.
	for _, sp := range []*protocol.Spec{
		protocols.GoudaAcharyaMatching(4),
		protocols.GoudaAcharyaMatching(5),
		protocols.DijkstraTokenRing(4, 3), // cycles only inside I
	} {
		se, ee := newPair(t, sp)
		snI := se.Not(se.Invariant())
		enI := ee.Not(ee.Invariant())
		ssccs := se.CyclicSCCs(se.ActionGroups(), snI)
		esccs := ee.CyclicSCCs(ee.ActionGroups(), enI)
		if len(ssccs) != len(esccs) {
			t.Fatalf("%s: %d vs %d SCCs", sp.Name, len(ssccs), len(esccs))
		}
		// The union of SCC states must agree (per-SCC order may differ).
		sunion, eunion := se.Empty(), ee.Empty()
		for _, s := range ssccs {
			sunion = se.Or(sunion, s)
		}
		for _, s := range esccs {
			eunion = ee.Or(eunion, s)
		}
		sameSet(t, se, sunion, ee, eunion, sp.Name+" SCC union")
		// And each symbolic SCC must equal some explicit SCC.
		for _, s := range ssccs {
			matched := false
			for _, x := range esccs {
				if se.States(s) == ee.States(x) {
					st, _ := se.PickState(s)
					if !ee.IsEmpty(ee.And(x, ee.Singleton(st))) {
						matched = true
						break
					}
				}
			}
			if !matched {
				t.Fatalf("%s: symbolic SCC without explicit counterpart", sp.Name)
			}
		}
	}
}

// TestSynthesisAgrees is the strongest differential test: the heuristic is
// deterministic given engine answers, so both engines must synthesize the
// identical protocol.
func TestSynthesisAgrees(t *testing.T) {
	for _, sp := range []*protocol.Spec{
		protocols.TokenRing(4, 3),
		protocols.Matching(5),
		protocols.Coloring(5),
		protocols.TokenRing(3, 4),
	} {
		se, ee := newPair(t, sp)
		sres, serr := core.AddConvergence(se, core.Options{})
		eres, eerr := core.AddConvergence(ee, core.Options{})
		if (serr == nil) != (eerr == nil) {
			t.Fatalf("%s: symbolic err %v, explicit err %v", sp.Name, serr, eerr)
		}
		if serr != nil {
			continue
		}
		if sres.PassCompleted != eres.PassCompleted {
			t.Errorf("%s: pass %d vs %d", sp.Name, sres.PassCompleted, eres.PassCompleted)
		}
		skeys := make(map[protocol.Key]bool)
		for _, g := range sres.Protocol {
			skeys[g.ProtocolGroup().Key()] = true
		}
		if len(skeys) != len(eres.Protocol) {
			t.Fatalf("%s: %d vs %d groups", sp.Name, len(skeys), len(eres.Protocol))
		}
		for _, g := range eres.Protocol {
			if !skeys[g.ProtocolGroup().Key()] {
				t.Fatalf("%s: explicit group %v missing from symbolic result",
					sp.Name, g.ProtocolGroup())
			}
		}
		// The synthesized protocol verifies on the symbolic engine too.
		if v := verify.StronglyStabilizing(se, sres.Protocol); !v.OK {
			t.Errorf("%s: symbolic verification failed: %s", sp.Name, v.Reason)
		}
	}
}

// TestSymbolicScalesBeyondExplicitTests runs a coloring instance large
// enough to be annoying for the explicit engine in unit-test time.
func TestSymbolicScalesColoring(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping 15-process coloring in -short mode")
	}
	se, err := symbolic.New(protocols.Coloring(15))
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.AddConvergence(se, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if v := verify.StronglyStabilizing(se, res.Protocol); !v.OK {
		t.Fatalf("coloring-15 not strongly stabilizing: %s", v.Reason)
	}
	if res.ProgramSize <= 0 {
		t.Error("ProgramSize not reported")
	}
}

func TestPickStateAndSingleton(t *testing.T) {
	se, _ := newPair(t, protocols.TokenRing(4, 3))
	st, ok := se.PickState(se.Invariant())
	if !ok {
		t.Fatal("PickState failed on invariant")
	}
	if !se.Spec().Invariant.EvalBool(st) {
		t.Fatalf("picked state %v not legitimate", st)
	}
	single := se.Singleton(st)
	if se.States(single) != 1 {
		t.Fatalf("singleton has %v states", se.States(single))
	}
	if se.IsEmpty(se.And(single, se.Invariant())) {
		t.Fatal("singleton not inside invariant")
	}
	if _, ok := se.PickState(se.Empty()); ok {
		t.Fatal("PickState on empty set should fail")
	}
}

func TestSetSizeAndProgramSize(t *testing.T) {
	se, _ := newPair(t, protocols.TokenRing(4, 3))
	if se.SetSize(se.Invariant()) < 3 {
		t.Error("invariant BDD suspiciously small")
	}
	n := se.ProgramSize(se.ActionGroups())
	if n <= 0 {
		t.Fatal("ProgramSize must be positive")
	}
	// Shared: total size ≤ sum of individual relation sizes.
	sum := 0
	for _, g := range se.ActionGroups() {
		sum += se.ProgramSize([]core.Group{g})
	}
	if n > sum {
		t.Errorf("shared size %d exceeds sum of parts %d", n, sum)
	}
}

// TestGroupKeysCached checks that every action and candidate group carries
// the key of its protocol group, on the built-ins and generated specs.
func TestGroupKeysCached(t *testing.T) {
	specs := []*protocol.Spec{
		protocols.TokenRing(4, 3),
		protocols.DijkstraTokenRing(4, 3),
		protocols.Matching(5),
		protocols.GoudaAcharyaMatching(5),
		protocols.Coloring(5),
		protocols.DijkstraThreeState(4),
		protocols.TwoRingTokenRing(),
	}
	for seed := int64(0); seed < 12; seed++ {
		specs = append(specs, specgen.RandomSpec(rand.New(rand.NewSource(seed)), true))
	}
	for _, sp := range specs {
		se, err := symbolic.New(sp)
		if err != nil {
			t.Fatalf("%s: %v", sp.Name, err)
		}
		for _, g := range append(se.ActionGroups(), se.CandidateGroups()...) {
			if want := g.ProtocolGroup().Key(); g.Key() != want {
				t.Fatalf("%s: group key %q, want %q", sp.Name, g.Key(), want)
			}
		}
	}
}
