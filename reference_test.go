package stsyn_test

import (
	"testing"

	"stsyn"
	"stsyn/internal/explicit"
	"stsyn/internal/symbolic"
)

// TestProtocolsVerifyOnReferenceEngines checks synthesis on the default
// engines against an independent cycle detector. VerifyCycleFree asks the
// engine's own CyclicSCCs, which is the code under optimization, so a
// default-engine protocol is re-verified on a fresh engine in reference
// mode: per-state Tarjan over the untrimmed space (explicit), per-group
// full-recompute fixpoints (symbolic). The reference engine must find the
// protocol strongly stabilizing, and must synthesize the same protocol
// itself. The cases are the cli-sweep benchmark families at test sizes.
func TestProtocolsVerifyOnReferenceEngines(t *testing.T) {
	newExplicit := func(sp *stsyn.Spec, reference bool) (stsyn.Engine, error) {
		e, err := explicit.New(sp, 0)
		if err == nil {
			e.SetReferenceKernels(reference)
		}
		return e, err
	}
	newSymbolic := func(sp *stsyn.Spec, reference bool) (stsyn.Engine, error) {
		e, err := symbolic.New(sp)
		if err == nil {
			e.SetReferenceFixpoints(reference)
		}
		return e, err
	}
	for _, tc := range []struct {
		name string
		sp   *stsyn.Spec
		mk   func(*stsyn.Spec, bool) (stsyn.Engine, error)
	}{
		{"explicit/token-ring-5-4", stsyn.TokenRing(5, 4), newExplicit},
		{"explicit/matching-6", stsyn.Matching(6), newExplicit},
		{"explicit/coloring-7", stsyn.Coloring(7), newExplicit},
		{"explicit/two-ring", stsyn.TwoRingTokenRing(), newExplicit},
		{"symbolic/coloring-5", stsyn.Coloring(5), newSymbolic},
		{"symbolic/matching-5", stsyn.Matching(5), newSymbolic},
	} {
		t.Run(tc.name, func(t *testing.T) {
			def, err := tc.mk(tc.sp, false)
			if err != nil {
				t.Fatal(err)
			}
			res, err := stsyn.AddConvergence(def, stsyn.Options{})
			if err != nil {
				t.Fatal(err)
			}
			ref, err := tc.mk(tc.sp, true)
			if err != nil {
				t.Fatal(err)
			}
			bound, err := stsyn.BindGroups(ref, stsyn.ProtocolGroups(res.Protocol))
			if err != nil {
				t.Fatal(err)
			}
			if v := stsyn.VerifyCycleFree(ref, bound); !v.OK {
				t.Fatalf("reference engine finds cycles: %s (witness %v)", v.Reason, v.Witness)
			}
			if v := stsyn.VerifyStronglyStabilizing(ref, bound); !v.OK {
				t.Fatalf("reference engine rejects the protocol: %s (witness %v)", v.Reason, v.Witness)
			}

			refRes, err := stsyn.AddConvergence(ref, stsyn.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if got, want := protocolKeys(res.Protocol), protocolKeys(refRes.Protocol); !equalKeys(got, want) {
				t.Fatalf("default engine synthesized %d groups, reference engine %d, and they differ", len(got), len(want))
			}
		})
	}
}

func protocolKeys(gs []stsyn.Group) map[string]bool {
	out := make(map[string]bool, len(gs))
	for _, g := range gs {
		out[string(g.ProtocolGroup().Key())] = true
	}
	return out
}

func equalKeys(a, b map[string]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}
