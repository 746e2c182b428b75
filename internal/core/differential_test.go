package core_test

import (
	"errors"
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

// stateRank returns the rank of state s under the given partition: the
// index of the rank set containing it, or -1 when it only appears in the
// infinite set.
func stateRank(e core.Engine, ranks []core.Set, s protocol.State) int {
	single := e.Singleton(s)
	for r, set := range ranks {
		if !e.IsEmpty(e.And(set, single)) {
			return r
		}
	}
	return -1
}

// checkDifferential runs the full cross-engine agreement battery on one
// specification: rank partitions, ∞-rank detection, and AddConvergence
// outcome must match the explicit engine exactly. A fault in the
// hash-consed store or the scratch-manager migration flips set membership
// silently, which is precisely what the explicit engine cross-check
// catches.
func checkDifferential(t *testing.T, sp *protocol.Spec) {
	t.Helper()
	se, err := symbolic.New(sp)
	if err != nil {
		t.Fatalf("symbolic.New: %v", err)
	}
	ee, err := explicit.New(sp, 0)
	if err != nil {
		t.Fatalf("explicit.New: %v", err)
	}

	// Rank-partition parity on the intermediate protocol p_im.
	sranks, sinf := core.ComputeRanks(se, core.Pim(se, se.ActionGroups()))
	eranks, einf := core.ComputeRanks(ee, core.Pim(ee, ee.ActionGroups()))
	if len(sranks) != len(eranks) {
		t.Fatalf("rank counts differ: symbolic %d vs explicit %d", len(sranks), len(eranks))
	}
	if se.States(sinf) != ee.States(einf) {
		t.Fatalf("∞-rank state counts differ: symbolic %v vs explicit %v",
			se.States(sinf), ee.States(einf))
	}

	// Compare per-state membership across the whole space.
	ix := protocol.NewIndexer(sp)
	s := make(protocol.State, len(sp.Vars))
	for i := uint64(0); i < ix.Len(); i++ {
		ix.Decode(i, s)
		sr, er := stateRank(se, sranks, s), stateRank(ee, eranks, s)
		if sr != er {
			t.Fatalf("state %v: symbolic rank %d vs explicit rank %d", s, sr, er)
		}
		sin := !se.IsEmpty(se.And(sinf, se.Singleton(s)))
		ein := !ee.IsEmpty(ee.And(einf, ee.Singleton(s)))
		if sin != ein {
			t.Fatalf("state %v: ∞-rank membership differs (symbolic %v, explicit %v)", s, sin, ein)
		}
		if (sr == -1) != sin {
			t.Fatalf("state %v: rank partition and ∞ set are not a partition", s)
		}
	}

	// AddConvergence outcome parity, both resolution strategies.
	for _, resolution := range []core.CycleResolution{core.BatchResolution, core.IncrementalResolution} {
		opts := core.Options{CycleResolution: resolution}
		sres, serr := core.AddConvergence(se, opts)
		eres, eerr := core.AddConvergence(ee, opts)
		if (serr == nil) != (eerr == nil) {
			t.Fatalf("engines disagree on success: symbolic=%v explicit=%v", serr, eerr)
		}
		if serr != nil {
			for _, sentinel := range []error{core.ErrNotClosed, core.ErrNoStabilizingVersion,
				core.ErrUnresolvableCycle, core.ErrDeadlocksRemain} {
				if errors.Is(serr, sentinel) != errors.Is(eerr, sentinel) {
					t.Fatalf("different error classes: %v vs %v", serr, eerr)
				}
			}
			continue
		}
		skeys := make(map[protocol.Key]bool)
		for _, g := range sres.Protocol {
			skeys[g.ProtocolGroup().Key()] = true
		}
		if len(skeys) != len(eres.Protocol) {
			t.Fatalf("synthesized group counts differ: %d vs %d", len(skeys), len(eres.Protocol))
		}
		for _, g := range eres.Protocol {
			if !skeys[g.ProtocolGroup().Key()] {
				t.Fatalf("symbolic protocol lacks group %s", g.ProtocolGroup().Render(sp))
			}
		}
		// The GC-stressed engine's own result must also model-check, on
		// its own engine and on the explicit one, whose cycle detection
		// shares no code with the symbolic engine's.
		if v := verify.StronglyStabilizing(se, sres.Protocol); !v.OK {
			t.Fatalf("GC-stressed result fails verification: %s", v.Reason)
		}
		if v := verify.StronglyStabilizing(ee, eres.Protocol); !v.OK {
			t.Fatalf("result fails verification on the explicit engine: %s", v.Reason)
		}
	}
}

// TestDifferentialEnginesRandomCorpus is the cross-engine differential
// battery over a corpus of random protocols.
func TestDifferentialEnginesRandomCorpus(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	iters := 40
	if testing.Short() {
		iters = 8
	}
	for iter := 0; iter < iters; iter++ {
		sp := specgen.RandomSpec(rng, iter%2 == 1)
		checkDifferential(t, sp)
	}
}

// TestDifferentialEnginesBuiltins runs the battery over the paper's small
// case studies, Dijkstra's token ring, and Gouda–Acharya matching, whose
// synthesis fails with deadlocks remaining.
func TestDifferentialEnginesBuiltins(t *testing.T) {
	for _, sp := range []*protocol.Spec{
		protocols.TokenRing(4, 3),
		protocols.Matching(5),
		protocols.Coloring(5),
		protocols.GoudaAcharyaMatching(4),
		protocols.DijkstraTokenRing(4, 3),
	} {
		t.Run(sp.Name, func(t *testing.T) { checkDifferential(t, sp) })
	}
}

// FuzzDifferentialEngines feeds generator seeds from the fuzzer into the
// same battery, so `go test -fuzz` explores specs the fixed corpus missed.
func FuzzDifferentialEngines(f *testing.F) {
	for _, seed := range []int64{3, 11, 17, 1001, 2024} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		checkDifferential(t, specgen.RandomSpec(rng, rng.Intn(2) == 1))
	})
}
