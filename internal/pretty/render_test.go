package pretty_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"stsyn/internal/core"
	"stsyn/internal/explicit"
	"stsyn/internal/pretty"
	"stsyn/internal/protocol"
	"stsyn/internal/protocols"
	"stsyn/internal/specgen"
)

// checkSameRender fails t unless Process renders groups exactly as the
// reference renderer does, command for command.
func checkSameRender(t *testing.T, sp *protocol.Spec, proc int, groups []protocol.Group) []pretty.Command {
	t.Helper()
	got := pretty.Process(sp, proc, groups)
	want := refProcess(sp, proc, groups)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s process %d over %d groups:\n got %v\nwant %v\ngroups %v",
			sp.Name, proc, len(groups), got, want, groups)
	}
	return got
}

// checkSameProtocol holds the whole text layout to the reference too.
func checkSameProtocol(t *testing.T, sp *protocol.Spec, groups []protocol.Group) {
	t.Helper()
	if got, want := pretty.Protocol(sp, groups), refProtocol(sp, groups); got != want {
		t.Fatalf("%s: Protocol differs from the reference\n got:\n%s\nwant:\n%s", sp.Name, got, want)
	}
}

// builtinRenders returns a built-in's action groups and, when synthesis
// succeeds, its synthesized protocol.
func builtinRenders(t testing.TB, sp *protocol.Spec) (actions, synthesized []protocol.Group) {
	t.Helper()
	e, err := explicit.New(sp, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range e.ActionGroups() {
		actions = append(actions, g.ProtocolGroup())
	}
	res, err := core.AddConvergence(e, core.Options{})
	if err != nil {
		return actions, nil
	}
	for _, g := range res.Protocol {
		synthesized = append(synthesized, g.ProtocolGroup())
	}
	return actions, synthesized
}

// byProcess splits groups by process, keeping their order.
func byProcess(sp *protocol.Spec, groups []protocol.Group) [][]protocol.Group {
	out := make([][]protocol.Group, len(sp.Procs))
	for _, g := range groups {
		out[g.Proc] = append(out[g.Proc], g)
	}
	return out
}

// widenWrites returns a copy of sp in which every process that reads a
// variable besides its written one also writes the lowest such variable,
// so the effect search combines candidates across two written variables.
func widenWrites(sp *protocol.Spec) *protocol.Spec {
	out := *sp
	out.Procs = append([]protocol.Process(nil), sp.Procs...)
	for pi := range out.Procs {
		p := &out.Procs[pi]
		for _, id := range p.Reads {
			if id != p.Writes[0] {
				p.Writes = protocol.SortedIDs(p.Writes[0], id)
				break
			}
		}
	}
	return &out
}

// randomSubset draws each candidate group of proc with probability
// density and then repeats a few of the drawn groups, so that duplicated
// input groups reach the relation count and the cube merge.
func randomSubset(rng *rand.Rand, sp *protocol.Spec, proc int, density float64) []protocol.Group {
	var out []protocol.Group
	for _, g := range sp.CandidateGroups(proc) {
		if rng.Float64() < density {
			out = append(out, g)
		}
	}
	for n := rng.Intn(3); n > 0 && len(out) > 0; n-- {
		out = append(out, out[rng.Intn(len(out))])
	}
	return out
}

// relationSpec has processes whose reads mix domains: P0 reads x0..x3
// (domains 3, 2, 3, 2) and writes x2, which is not its first read; P1
// reads x1, x4, x5 (domains 2, 4, 4) and writes x5, its last read. P2
// reads x6..x8, all of domain 1, and writes x7: over its single valuation
// every relation holds, so only the trial order picks the one printed.
func relationSpec() *protocol.Spec {
	sp := &protocol.Spec{Name: "relations"}
	for i, d := range []int{3, 2, 3, 2, 4, 4, 1, 1, 1} {
		sp.Vars = append(sp.Vars, protocol.Var{Name: "x" + string(rune('0'+i)), Dom: d})
	}
	sp.Procs = []protocol.Process{
		{Name: "P0", Reads: protocol.SortedIDs(0, 1, 2, 3), Writes: []int{2}},
		{Name: "P1", Reads: protocol.SortedIDs(1, 4, 5), Writes: []int{5}},
		{Name: "P2", Reads: protocol.SortedIDs(6, 7, 8), Writes: []int{7}},
	}
	return sp
}

func readDoms(sp *protocol.Spec, proc int) []int {
	p := &sp.Procs[proc]
	doms := make([]int, len(p.Reads))
	for i, id := range p.Reads {
		doms[i] = sp.Vars[id].Dom
	}
	return doms
}

// relationSets enumerates, for process proc of sp, the exact valuation set
// of every relation vA == vB + c and vA != vB over its equal-domain read
// pairs that holds anywhere.
func relationSets(sp *protocol.Spec, proc int) [][][]int {
	doms := readDoms(sp, proc)
	var sets [][][]int
	add := func(rel func(rv []int) bool) {
		var set [][]int
		protocol.Valuations(doms, func(rv []int) {
			if rel(rv) {
				set = append(set, append([]int(nil), rv...))
			}
		})
		if set != nil {
			sets = append(sets, set)
		}
	}
	for a := range doms {
		for b := range doms {
			if a == b || doms[a] != doms[b] {
				continue
			}
			d := doms[a]
			for c := 0; c < d; c++ {
				add(func(rv []int) bool { return rv[a] == (rv[b]+c)%d })
			}
			add(func(rv []int) bool { return rv[a] != rv[b] })
		}
	}
	return sets
}

// TestRenderMatchesReference holds Process to the reference renderer on
// the built-ins' action groups and synthesized protocols, on random
// subsets of specgen candidate groups (single and double writes, unequal
// read domains, duplicated groups), and on sets that are exactly one
// relation's set, one valuation short of it, one valuation past it, or
// it with a valuation repeated: the cases the counting argument decides.
func TestRenderMatchesReference(t *testing.T) {
	t.Run("builtins", func(t *testing.T) {
		for _, sp := range []*protocol.Spec{
			protocols.TokenRing(4, 3),
			protocols.TokenRing(5, 5),
			protocols.DijkstraTokenRing(4, 3),
			protocols.DijkstraThreeState(4),
			protocols.Matching(5),
			protocols.Matching(6),
			protocols.GoudaAcharyaMatching(4),
			protocols.Coloring(5),
			protocols.Coloring(7),
			protocols.TwoRingTokenRing(),
		} {
			t.Run(sp.Name, func(t *testing.T) {
				actions, synthesized := builtinRenders(t, sp)
				for _, groups := range [][]protocol.Group{actions, synthesized} {
					checkSameProtocol(t, sp, groups)
					for pi, gs := range byProcess(sp, groups) {
						checkSameRender(t, sp, pi, gs)
					}
				}
			})
		}
	})

	t.Run("specgen", func(t *testing.T) {
		for seed := int64(0); seed < 40; seed++ {
			rng := rand.New(rand.NewSource(seed))
			sp := specgen.RandomSpec(rng, false)
			if seed%2 == 1 {
				sp = widenWrites(sp)
			}
			for pi := range sp.Procs {
				for _, density := range []float64{0.1, 0.4, 0.8, 1} {
					checkSameRender(t, sp, pi, randomSubset(rng, sp, pi, density))
				}
			}
		}
	})

	t.Run("relations", func(t *testing.T) {
		sp := relationSpec()
		for pi, p := range sp.Procs {
			wdom := sp.Vars[p.Writes[0]].Dom
			group := func(rv []int) protocol.Group {
				return protocol.Group{Proc: pi, ReadVals: rv, WriteVals: []int{rv[0] % wdom}}
			}
			for _, set := range relationSets(sp, pi) {
				exact := make([]protocol.Group, len(set))
				in := make(map[string]bool, len(set))
				for i, rv := range set {
					exact[i] = group(rv)
					in[fmt.Sprint(rv)] = true
				}
				if cmds := checkSameRender(t, sp, pi, exact); len(cmds) != 1 || !strings.Contains(cmds[0].Guard, "= x") {
					t.Fatalf("%s process %d: exact relation set %v rendered as %v", sp.Name, pi, set, cmds)
				}
				checkSameRender(t, sp, pi, exact[1:])
				checkSameRender(t, sp, pi, exact[:len(exact)-1])
				checkSameRender(t, sp, pi, append(exact[:len(exact):len(exact)], exact[0]))
				protocol.Valuations(readDoms(sp, pi), func(rv []int) {
					if !in[fmt.Sprint(rv)] {
						in[fmt.Sprint(rv)] = true
						checkSameRender(t, sp, pi, append(exact[:len(exact):len(exact)], group(append([]int(nil), rv...))))
					}
				})
			}
		}
	})
}

// FuzzRenderEquivalence feeds (seed, subset mask) pairs into the same
// check: the seed picks a specgen spec, whose processes write two
// variables when the seed is odd; bit (i+proc) mod 63 of the mask keeps a
// process's i-th candidate group, and bit 63 repeats its first kept group.
func FuzzRenderEquivalence(f *testing.F) {
	for _, c := range []struct {
		seed int64
		mask uint64
	}{
		{0, ^uint64(0)}, {3, 0x5555555555555555}, {11, 0x0f0f0f0f0f0f0f0f},
		{1001, 1<<63 | 0xff00ff00ff}, {2024, 0x9e3779b97f4a7c15},
	} {
		f.Add(c.seed, c.mask)
	}
	f.Fuzz(func(t *testing.T, seed int64, mask uint64) {
		rng := rand.New(rand.NewSource(seed))
		sp := specgen.RandomSpec(rng, false)
		if seed%2 != 0 {
			sp = widenWrites(sp)
		}
		for pi := range sp.Procs {
			var groups []protocol.Group
			for i, g := range sp.CandidateGroups(pi) {
				if mask>>((i+pi)%63)&1 == 1 {
					groups = append(groups, g)
				}
			}
			if mask>>63 == 1 && len(groups) > 0 {
				groups = append(groups, groups[0])
			}
			checkSameRender(t, sp, pi, groups)
		}
	})
}

// renderSink keeps BenchmarkRender's result live.
var renderSink string

// BenchmarkRender renders the synthesized protocols of two-ring,
// matching-7 and coloring-10; synthesis runs outside the timer.
func BenchmarkRender(b *testing.B) {
	for _, sp := range []*protocol.Spec{
		protocols.TwoRingTokenRing(),
		protocols.Matching(7),
		protocols.Coloring(10),
	} {
		_, groups := builtinRenders(b, sp)
		if groups == nil {
			b.Fatalf("%s: synthesis failed", sp.Name)
		}
		b.Run(sp.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				renderSink = pretty.Protocol(sp, groups)
			}
		})
	}
}
