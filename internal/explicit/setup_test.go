package explicit

import (
	"math/rand"
	"testing"

	"stsyn/internal/protocol"
	"stsyn/internal/protocols"
	"stsyn/internal/specgen"
)

// setupCorpus is the spec corpus of the group-setup tests: the built-ins,
// the mixed-domain mixedDeltaSpec and generated specs.
func setupCorpus() []*protocol.Spec {
	specs := []*protocol.Spec{
		protocols.TokenRing(4, 3),
		protocols.DijkstraTokenRing(4, 3),
		protocols.Matching(5),
		protocols.GoudaAcharyaMatching(5),
		protocols.Coloring(5),
		protocols.DijkstraThreeState(4),
		protocols.TwoRingTokenRing(),
		mixedDeltaSpec(),
	}
	for seed := int64(0); seed < 12; seed++ {
		specs = append(specs, specgen.RandomSpec(rand.New(rand.NewSource(seed)), true))
	}
	return specs
}

// TestGroupKeysCached checks that every action and candidate group carries
// the key of its protocol group, and that the engine's key index resolves
// the key to that group.
func TestGroupKeysCached(t *testing.T) {
	for _, sp := range setupCorpus() {
		e, err := New(sp, 0)
		if err != nil {
			t.Fatalf("%s: %v", sp.Name, err)
		}
		for _, g := range append(e.ActionGroups(), e.CandidateGroups()...) {
			want := g.ProtocolGroup().Key()
			if g.Key() != want {
				t.Fatalf("%s: group key %q, want %q", sp.Name, g.Key(), want)
			}
			if id, ok := e.byKey[want]; !ok || e.all[id] != g {
				t.Fatalf("%s: key %q does not resolve to its group", sp.Name, want)
			}
		}
	}
}

// TestGroupSourcesMatchDecode checks each group's source machinery against
// the states whose decoded valuation matches the group: the word fill of
// sources, the per-state walk of forEachSrc, and srcCount. It covers every
// group, sparse ones included, on the corpus specs small enough to decode
// once per group.
func TestGroupSourcesMatchDecode(t *testing.T) {
	for _, sp := range setupCorpus() {
		e, err := New(sp, 0)
		if err != nil {
			t.Fatalf("%s: %v", sp.Name, err)
		}
		if e.n > 4096 {
			continue
		}
		s := make(protocol.State, len(sp.Vars))
		for _, g := range e.all {
			want := NewBitset(e.n)
			for i := uint64(0); i < e.n; i++ {
				if g.pg.Matches(sp, e.ix.Decode(i, s)) {
					want.Set(i)
				}
			}
			walked := NewBitset(e.n)
			e.forEachSrc(g, func(src uint64) bool { walked.Set(src); return true })
			if !walked.Equal(want) {
				t.Fatalf("%s group %q: forEachSrc disagrees with decoding", sp.Name, g.key)
			}
			if g.srcCount != want.Count() {
				t.Fatalf("%s group %q: srcCount %d, want %d", sp.Name, g.key, g.srcCount, want.Count())
			}
			if !e.sources(g).Equal(want) {
				t.Fatalf("%s group %q: sources disagrees with decoding", sp.Name, g.key)
			}
		}
	}
}

// coversWordFill reports whether e has a dense group whose unread
// variables have mixed domains and weights both below and above 64, so
// the word fill of sources shifts both within and across words.
func coversWordFill(e *Engine) bool {
	for _, g := range e.all {
		if e.sparse(g) {
			continue
		}
		var below, above, mixed bool
		for i, w := range g.unreadW {
			below = below || w < 64
			above = above || w > 64
			mixed = mixed || g.unreadD[i] != g.unreadD[0]
		}
		if below && above && mixed {
			return true
		}
	}
	return false
}
