package symbolic_test

import (
	"slices"
	"testing"

	"stsyn/internal/core"
	"stsyn/internal/protocol"
	"stsyn/internal/protocols"
	"stsyn/internal/symbolic"
	"stsyn/internal/verify"
)

// protocolKeys lists the synthesized protocol's group keys in order.
func protocolKeys(res *core.Result) []protocol.Key {
	keys := make([]protocol.Key, len(res.Protocol))
	for i, g := range res.Protocol {
		keys[i] = g.Key()
	}
	return keys
}

// TestRepeatedSynthesisBoundedMemory pins the engine's lifetime contract
// from the caller's side: several syntheses on one reused engine return
// identical, verified protocols. The persistent store only grows, but a
// repeated synthesis builds the same functions, which hash-cons to the
// nodes the first run stored, so the store stops growing after one run.
func TestRepeatedSynthesisBoundedMemory(t *testing.T) {
	e, err := symbolic.New(protocols.TokenRing(4, 3))
	if err != nil {
		t.Fatal(err)
	}
	var first []protocol.Key
	var size int
	for i := 0; i < 5; i++ {
		res, err := core.AddConvergence(e, core.Options{})
		if err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
		if len(res.Added) == 0 {
			t.Fatalf("iteration %d: no recovery groups added", i)
		}
		if v := verify.StronglyStabilizing(e, res.Protocol); !v.OK {
			t.Fatalf("iteration %d: verification failed: %s", i, v.Reason)
		}
		keys := protocolKeys(res)
		if i == 0 {
			first, size = keys, e.Manager().Size()
			continue
		}
		if !slices.Equal(keys, first) {
			t.Fatalf("iteration %d: protocol differs from the first run's", i)
		}
		if got := e.Manager().Size(); got != size {
			t.Fatalf("iteration %d: store grew from %d to %d nodes on a repeated synthesis", i, size, got)
		}
	}
}

// TestSCCSetsOutliveLaterCalls pins the CyclicSCCs lifetime contract:
// components from an earlier call stay usable after later cycle
// detections and images, including ones that drop and rebuild the scratch
// manager. Hash-consing makes the check exact: recomputing the components
// must return the very same sets.
func TestSCCSetsOutliveLaterCalls(t *testing.T) {
	e, err := symbolic.New(protocols.TokenRing(3, 3))
	if err != nil {
		t.Fatal(err)
	}
	sccs := e.CyclicSCCs(e.ActionGroups(), e.Universe())
	if len(sccs) == 0 {
		t.Fatal("token ring's legitimate ring rotation should form an SCC")
	}
	states := make([]float64, len(sccs))
	for i, scc := range sccs {
		states[i] = e.States(scc)
	}

	// Later work on the same engine: cycle detection over other groups,
	// images, and a whole synthesis.
	e.CyclicSCCs(e.CandidateGroups(), e.Not(e.Invariant()))
	e.Pre(e.CandidateGroups(), e.Invariant())
	if _, err := core.AddConvergence(e, core.Options{}); err != nil {
		t.Fatal(err)
	}

	again := e.CyclicSCCs(e.ActionGroups(), e.Universe())
	if len(again) != len(sccs) {
		t.Fatalf("recomputed %d components, first call gave %d", len(again), len(sccs))
	}
	for i, scc := range sccs {
		if got := e.States(scc); got != states[i] {
			t.Fatalf("scc %d: %g states, was %g", i, got, states[i])
		}
		if !e.Equal(scc, again[i]) {
			t.Fatalf("scc %d differs from its recomputation", i)
		}
	}
}

// TestScratchDropsCountAsCollections checks the reclamation counters: a
// dropped scratch manager is the engine's one collection, so a run that
// outgrows the scratch watermark reports its drops and the nodes they
// released, and its peak covers the largest scratch store.
func TestScratchDropsCountAsCollections(t *testing.T) {
	e, err := symbolic.New(protocols.Matching(6))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.AddConvergence(e, core.Options{}); err != nil {
		t.Fatal(err)
	}
	st := e.SpaceStats()
	if st.GCRuns == 0 || st.GCReclaimed == 0 {
		t.Fatalf("no scratch drop counted: %+v", st)
	}
	if st.GCReclaimed < uint64(st.GCRuns)<<16 {
		t.Fatalf("%d drops released only %d nodes; each drop exceeds the 1<<16 watermark", st.GCRuns, st.GCReclaimed)
	}
	if st.LiveNodes != e.Manager().Size() || st.AllocatedSlots != st.LiveNodes {
		t.Fatalf("store accounting disagrees with the manager (%d nodes): %+v", e.Manager().Size(), st)
	}
	if st.PeakLiveNodes <= 1<<16 {
		t.Fatalf("peak %d does not cover a scratch store past the watermark", st.PeakLiveNodes)
	}
}
