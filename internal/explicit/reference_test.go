package explicit

import (
	"reflect"
	"testing"

	"stsyn/internal/core"
	"stsyn/internal/protocol"
	"stsyn/internal/protocols"
	"stsyn/internal/verify"
)

// refEngine is the test oracle for the engine's kernels: the image
// operations and group probes answered one source state at a time by the
// per-state scans, cycle detection by Tarjan over the untrimmed space, and
// cycle attribution by one GroupFromTo probe per (component, group) pair.
// Everything else is the engine underneath.
type refEngine struct{ *Engine }

// newRefEngine builds a fresh engine for sp wrapped as the oracle.
func newRefEngine(t testing.TB, sp *protocol.Spec) refEngine {
	t.Helper()
	e, err := New(sp, 0)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return refEngine{e}
}

func (r refEngine) Pre(gs []core.Group, X core.Set) core.Set {
	acc := NewBitset(r.n)
	for _, g := range gs {
		r.preScan(g.(*group), X.(*Bitset), acc)
	}
	return acc
}

func (r refEngine) Post(gs []core.Group, X core.Set) core.Set {
	acc := NewBitset(r.n)
	for _, g := range gs {
		r.postScan(g.(*group), X.(*Bitset), acc)
	}
	return acc
}

func (r refEngine) EnabledSources(gs []core.Group) core.Set {
	acc := NewBitset(r.n)
	for _, g := range gs {
		r.OrSrcInto(acc, g)
	}
	return acc
}

func (r refEngine) GroupSrc(g core.Group) core.Set {
	acc := NewBitset(r.n)
	r.OrSrcInto(acc, g)
	return acc
}

func (r refEngine) OrSrcInto(dst core.Set, g core.Group) {
	acc := dst.(*Bitset)
	r.forEachSrc(g.(*group), func(s uint64) bool { acc.Set(s); return true })
}

func (r refEngine) GroupDstInto(g core.Group, X core.Set) bool {
	return r.groupDstIntoScan(g.(*group), X.(*Bitset))
}

func (r refEngine) GroupFromTo(g core.Group, from, to core.Set) bool {
	return r.groupFromToScan(g.(*group), from.(*Bitset), to.(*Bitset))
}

func (r refEngine) GroupSrcIntersects(g core.Group, X core.Set) bool {
	return !r.GroupSrc(g).(*Bitset).And(X.(*Bitset)).IsEmpty()
}

func (r refEngine) CyclicSCCs(gs []core.Group, within core.Set) []core.Set {
	return r.tarjanSCCs(gs, within.(*Bitset))
}

func (r refEngine) SCCGroups(gs []core.Group, sccs []core.Set) [][]int {
	return core.PairwiseSCCGroups(r, gs, sccs)
}

// bindGroups resolves groups of another engine over the same spec to e's
// handles.
func bindGroups(e *Engine, gs []core.Group) []core.Group {
	out := make([]core.Group, len(gs))
	for i, g := range gs {
		out[i] = e.all[e.byKey[g.ProtocolGroup().Key()]]
	}
	return out
}

// TestProtocolsVerifyOnReferenceEngine checks synthesis on the default
// engine against the oracle. verify.CycleFree asks the engine's own
// CyclicSCCs, which is the code under optimization, so the default
// engine's protocol is re-verified on a fresh oracle engine: it must find
// the protocol cycle-free and strongly stabilizing, and must synthesize
// the same protocol itself. The cases are the cli-sweep benchmark
// families at test sizes.
func TestProtocolsVerifyOnReferenceEngine(t *testing.T) {
	for _, tc := range []struct {
		name string
		sp   *protocol.Spec
	}{
		{"token-ring-5-4", protocols.TokenRing(5, 4)},
		{"matching-6", protocols.Matching(6)},
		{"coloring-7", protocols.Coloring(7)},
		{"two-ring", protocols.TwoRingTokenRing()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			def, err := New(tc.sp, 0)
			if err != nil {
				t.Fatal(err)
			}
			res, err := core.AddConvergence(def, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			ref := newRefEngine(t, tc.sp)
			bound := bindGroups(ref.Engine, res.Protocol)
			if v := verify.CycleFree(ref, bound); !v.OK {
				t.Fatalf("oracle finds cycles: %s (witness %v)", v.Reason, v.Witness)
			}
			if v := verify.StronglyStabilizing(ref, bound); !v.OK {
				t.Fatalf("oracle rejects the protocol: %s (witness %v)", v.Reason, v.Witness)
			}
			refRes, err := core.AddConvergence(ref, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if got, want := protocolKeySet(res.Protocol), protocolKeySet(refRes.Protocol); !reflect.DeepEqual(got, want) {
				t.Fatalf("default engine synthesized %d groups, oracle %d, and they differ", len(got), len(want))
			}
		})
	}
}

func protocolKeySet(gs []core.Group) map[protocol.Key]bool {
	out := make(map[protocol.Key]bool, len(gs))
	for _, g := range gs {
		out[g.ProtocolGroup().Key()] = true
	}
	return out
}
