package symbolic_test

import (
	"testing"

	"stsyn/internal/core"
	"stsyn/internal/protocol"
	"stsyn/internal/protocols"
	"stsyn/internal/symbolic"
	"stsyn/internal/verify"
)

// protoKeys reduces a synthesis result to the comparable protocol key set.
func protoKeys(gs []core.Group) map[protocol.Key]bool {
	out := make(map[protocol.Key]bool, len(gs))
	for _, g := range gs {
		out[g.ProtocolGroup().Key()] = true
	}
	return out
}

func sameKeySets(a, b map[protocol.Key]bool) bool {
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

// synthesize runs AddConvergence on a fresh engine and returns the
// protocol key set (nil on error) plus the error.
func synthesize(t *testing.T, sp *protocol.Spec) (map[protocol.Key]bool, error) {
	t.Helper()
	e, err := symbolic.New(sp)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.AddConvergence(e, core.Options{})
	if err != nil {
		return nil, err
	}
	if v := verify.StronglyStabilizing(e, res.Protocol); !v.OK {
		t.Fatalf("result does not stabilize: %s", v.Reason)
	}
	return protoKeys(res.Protocol), nil
}

// TestReorderEquivalenceDeterministic pins synthesis equivalence under a
// spread of explicit variable orders (the fuzz target explores random
// ones): reversed, rotated, and odd-even interleaved layouts all yield the
// oracle protocol.
func TestReorderEquivalenceDeterministic(t *testing.T) {
	for _, sp := range []*protocol.Spec{
		protocols.TokenRing(4, 3),
		protocols.Matching(5),
		protocols.GoudaAcharyaMatching(4),
	} {
		want, wantErr := synthesize(t, sp)
		n := len(sp.Vars)
		orders := [][]int{make([]int, n), make([]int, n), make([]int, n)}
		for i := 0; i < n; i++ {
			orders[0][i] = n - 1 - i     // reversed
			orders[1][i] = (i + n/2) % n // rotated
			orders[2][i] = (2*i + 1) % n // odd levels first (n odd)…
		}
		if n%2 == 0 { // …or a strict odd-even split when n is even
			k := 0
			for i := 1; i < n; i += 2 {
				orders[2][k] = i
				k++
			}
			for i := 0; i < n; i += 2 {
				orders[2][k] = i
				k++
			}
		}
		for oi, order := range orders {
			e, err := symbolic.NewWithOrder(sp, order)
			if err != nil {
				t.Fatal(err)
			}
			res, err := core.AddConvergence(e, core.Options{})
			if (err == nil) != (wantErr == nil) {
				t.Fatalf("%s order %d: error %v, oracle %v", sp.Name, oi, err, wantErr)
			}
			if err != nil {
				continue
			}
			if !sameKeySets(protoKeys(res.Protocol), want) {
				t.Fatalf("%s order %d: protocol depends on the variable order", sp.Name, oi)
			}
			if v := verify.StronglyStabilizing(e, res.Protocol); !v.OK {
				t.Fatalf("%s order %d: not stabilizing: %s", sp.Name, oi, v.Reason)
			}
		}
	}
}

// TestNewWithOrderRejectsBadOrders covers the permutation validation.
func TestNewWithOrderRejectsBadOrders(t *testing.T) {
	sp := protocols.TokenRing(3, 3)
	for _, order := range [][]int{
		{0, 1},          // short
		{0, 1, 1},       // duplicate
		{0, 1, 3},       // out of range
		{-1, 1, 2},      // negative
		{0, 1, 2, 3, 4}, // long
	} {
		if _, err := symbolic.NewWithOrder(sp, order); err == nil {
			t.Fatalf("order %v accepted", order)
		}
	}
	if _, err := symbolic.NewWithOrder(sp, []int{2, 0, 1}); err != nil {
		t.Fatalf("valid order rejected: %v", err)
	}
}

// TestDefaultVarOrderRingIdentity pins that the locality order leaves the
// paper's ring case studies untouched (vars are declared in process
// order), so committed benchmarks measure the substrate, not a layout
// change.
func TestDefaultVarOrderRingIdentity(t *testing.T) {
	for _, sp := range []*protocol.Spec{
		protocols.TokenRing(5, 4),
		protocols.Coloring(7),
		protocols.Matching(6),
	} {
		order := symbolic.DefaultVarOrder(sp)
		for i, id := range order {
			if i != id {
				t.Fatalf("%s: DefaultVarOrder = %v, want identity", sp.Name, order)
			}
		}
	}
}
