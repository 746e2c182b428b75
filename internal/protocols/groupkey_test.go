package protocols

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"stsyn/internal/protocol"
)

// fmtKey renders a group key in the format protocol.Group.Key has always had,
// "proc|r,r,|w,w,", one fmt call per value.
func fmtKey(g protocol.Group) protocol.Key {
	var b strings.Builder
	fmt.Fprintf(&b, "%d|", g.Proc)
	for _, v := range g.ReadVals {
		fmt.Fprintf(&b, "%d,", v)
	}
	b.WriteByte('|')
	for _, v := range g.WriteVals {
		fmt.Fprintf(&b, "%d,", v)
	}
	return protocol.Key(b.String())
}

// TestGroupKeyFormat pins the bytes of protocol.Group.Key: experiment
// digests hash sorted keys, so the format must not drift. It checks every
// action and candidate group of the built-ins and random groups with
// multi-digit process numbers and values.
func TestGroupKeyFormat(t *testing.T) {
	specs := []*protocol.Spec{
		TokenRing(4, 3),
		DijkstraTokenRing(4, 3),
		Matching(5),
		GoudaAcharyaMatching(5),
		Coloring(5),
		DijkstraThreeState(4),
		TwoRingTokenRing(),
	}
	checked := 0
	for _, sp := range specs {
		for pi := range sp.Procs {
			for _, g := range append(sp.ActionGroups(pi), sp.CandidateGroups(pi)...) {
				if got, want := g.Key(), fmtKey(g); got != want {
					t.Fatalf("%s: Key() = %q, want %q", sp.Name, got, want)
				}
				checked++
			}
		}
	}
	if checked == 0 {
		t.Fatal("the built-ins gave no groups")
	}

	rng := rand.New(rand.NewSource(1))
	vals := func(n int) []int {
		out := make([]int, n)
		for i := range out {
			out[i] = rng.Intn(100000)
		}
		return out
	}
	for trial := 0; trial < 500; trial++ {
		g := protocol.Group{Proc: rng.Intn(1000), ReadVals: vals(rng.Intn(6)), WriteVals: vals(rng.Intn(4))}
		if got, want := g.Key(), fmtKey(g); got != want {
			t.Fatalf("Key() = %q, want %q", got, want)
		}
	}
}
