package core_test

import (
	"math/rand"
	"testing"

	"stsyn/internal/core"
	"stsyn/internal/explicit"
	"stsyn/internal/protocol"
	"stsyn/internal/protocols"
	"stsyn/internal/specgen"
	"stsyn/internal/symbolic"
)

// Rank-scheme differential battery: the frontier-based rank BFS against a
// whole-set BFS written here, and AddConvergence with the rank-∞
// fast-fail short-circuits (the default) against the same run with them
// switched off (AddConvergenceNoFastFail). Each pair must be
// observationally identical — same rank partition, same synthesized
// protocol, same failure with the same message — because the fast-fail
// paths only skip work whose outcome is already decided (alone-in-SCC
// doom proofs, deterministic futile-batch replay). Any drift here means
// one of those proofs is wrong.

// engineKinds are the engines the core batteries run on.
var engineKinds = []string{"explicit", "symbolic"}

// engineOfKind builds a default engine of the given kind for sp.
func engineOfKind(t *testing.T, kind string, sp *protocol.Spec) core.Engine {
	t.Helper()
	switch kind {
	case "explicit":
		e, err := explicit.New(sp, 0)
		if err != nil {
			t.Fatalf("explicit.New: %v", err)
		}
		return e
	case "symbolic":
		e, err := symbolic.New(sp)
		if err != nil {
			t.Fatalf("symbolic.New: %v", err)
		}
		return e
	default:
		t.Fatalf("unknown engine kind %q", kind)
		return nil
	}
}

// setsEqual reports extensional equality of two sets of one engine.
func setsEqual(e core.Engine, a, b core.Set) bool {
	return e.IsEmpty(e.Diff(a, b)) && e.IsEmpty(e.Diff(b, a))
}

// wholeSetRanks is the paper's ComputeRanks read literally: every BFS
// level pre-images the whole explored set.
func wholeSetRanks(e core.Engine, pim []core.Group) (ranks []core.Set, infinite core.Set) {
	explored := e.Invariant()
	ranks = []core.Set{explored}
	for {
		next := e.Diff(e.Pre(pim, explored), explored)
		if e.IsEmpty(next) {
			return ranks, e.Diff(e.Universe(), explored)
		}
		ranks = append(ranks, next)
		explored = e.Or(explored, next)
	}
}

// checkRankParity pins ComputeRanks against the whole-set BFS on one
// engine kind: identical rank partition, identical ∞ set.
func checkRankParity(t *testing.T, kind string, sp *protocol.Spec) {
	t.Helper()
	e := engineOfKind(t, kind, sp)
	pim := core.Pim(e, e.ActionGroups())
	franks, finf := core.ComputeRanks(e, pim)
	rranks, rinf := wholeSetRanks(e, pim)
	if len(franks) != len(rranks) {
		t.Fatalf("%s: rank counts differ: frontier %d vs whole-set %d", kind, len(franks), len(rranks))
	}
	for i := range franks {
		if !setsEqual(e, franks[i], rranks[i]) {
			t.Fatalf("%s: rank %d sets differ between frontier and whole-set BFS", kind, i)
		}
	}
	if !setsEqual(e, finf, rinf) {
		t.Fatalf("%s: ∞ sets differ between frontier and whole-set BFS", kind)
	}
}

// synthOutcome is everything observable about one AddConvergence run.
type synthOutcome struct {
	err      string
	keys     map[protocol.Key]bool
	pass     int
	maxRank  int
	fastFail int
}

func runScheme(t *testing.T, kind string, sp *protocol.Spec, fastFail bool, opts core.Options) synthOutcome {
	t.Helper()
	run := core.AddConvergenceNoFastFail
	if fastFail {
		run = core.AddConvergence
	}
	res, err := run(engineOfKind(t, kind, sp), opts)
	out := synthOutcome{keys: make(map[protocol.Key]bool)}
	if err != nil {
		out.err = err.Error()
	}
	if res != nil {
		out.pass = res.PassCompleted
		out.maxRank = res.MaxRank()
		out.fastFail = res.RankInfinityFastFail
		for _, g := range res.Protocol {
			out.keys[g.ProtocolGroup().Key()] = true
		}
	}
	return out
}

// checkSchemeParity runs AddConvergence with and without the fast-fail on
// one engine kind and requires identical outcomes, including failure
// messages byte for byte. The run without it must report zero fast-fail
// short-circuits — that counter is the switch's contract.
func checkSchemeParity(t *testing.T, kind string, sp *protocol.Spec, opts core.Options) int {
	t.Helper()
	fast := runScheme(t, kind, sp, true, opts)
	ref := runScheme(t, kind, sp, false, opts)
	if fast.err != ref.err {
		t.Fatalf("%s: errors differ:\n  fast-fail:    %q\n  no fast-fail: %q", kind, fast.err, ref.err)
	}
	if fast.pass != ref.pass || fast.maxRank != ref.maxRank {
		t.Fatalf("%s: result stats differ: pass %d/%d, max rank %d/%d",
			kind, fast.pass, ref.pass, fast.maxRank, ref.maxRank)
	}
	if len(fast.keys) != len(ref.keys) {
		t.Fatalf("%s: protocol sizes differ: %d vs %d groups", kind, len(fast.keys), len(ref.keys))
	}
	for k := range ref.keys {
		if !fast.keys[k] {
			t.Fatalf("%s: fast-fail protocol lacks group %s", kind, k)
		}
	}
	if ref.fastFail != 0 {
		t.Fatalf("%s: run without fast-fail reported %d fast-fail events, want 0", kind, ref.fastFail)
	}
	return fast.fastFail
}

// namedCorpus are the hand-picked specs: the paper's small case studies
// plus matching-4, where every schedule fails with deadlocks remaining —
// the failing path must replay the failure without fast-fail exactly.
func namedCorpus() []*protocol.Spec {
	return []*protocol.Spec{
		protocols.TokenRing(3, 2),
		protocols.TokenRing(4, 3),
		protocols.Matching(4),
		protocols.Matching(5),
		protocols.Coloring(5),
	}
}

func TestFrontierRanksMatchReference(t *testing.T) {
	for _, sp := range namedCorpus() {
		for _, kind := range engineKinds {
			checkRankParity(t, kind, sp)
		}
	}
	rng := rand.New(rand.NewSource(23))
	iters := 20
	if testing.Short() {
		iters = 5
	}
	for iter := 0; iter < iters; iter++ {
		sp := specgen.RandomSpec(rng, iter%2 == 1)
		for _, kind := range engineKinds {
			checkRankParity(t, kind, sp)
		}
	}
}

func TestRankSchemeOutcomeParity(t *testing.T) {
	for _, sp := range namedCorpus() {
		k := len(sp.Procs)
		schedules := [][]int{core.DefaultSchedule(k), core.Rotations(k)[k-1]}
		for _, sched := range schedules {
			for _, resolution := range []core.CycleResolution{core.BatchResolution, core.IncrementalResolution} {
				opts := core.Options{Schedule: sched, CycleResolution: resolution}
				for _, kind := range engineKinds {
					checkSchemeParity(t, kind, sp, opts)
				}
			}
		}
	}
}

func TestRankSchemeParityRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	iters := 30
	if testing.Short() {
		iters = 6
	}
	for iter := 0; iter < iters; iter++ {
		sp := specgen.RandomSpec(rng, iter%2 == 1)
		opts := core.Options{Schedule: rng.Perm(len(sp.Procs))}
		if iter%3 == 0 {
			opts.CycleResolution = core.IncrementalResolution
		}
		for _, kind := range engineKinds {
			checkSchemeParity(t, kind, sp, opts)
		}
	}
}

// TestFastFailTwoRingRotations is the rank-∞-heavy failing workload: the
// two-ring token ring under rotation schedules that end in deadlocks
// remaining after pass 3. These runs spend most of their time discovering
// unresolvable cycles, which is exactly where the fast-fail machinery
// must both fire (the counter is the evidence) and change nothing about
// the outcome. Explicit engine only: the symbolic two-ring runs take
// minutes and the machinery under test is engine-independent core code.
func TestFastFailTwoRingRotations(t *testing.T) {
	if testing.Short() {
		t.Skip("two-ring rotations take ~20s; skipped in -short")
	}
	sp := protocols.TwoRingTokenRing()
	rot := core.Rotations(len(sp.Procs))
	fired := 0
	for _, idx := range []int{2, 3} {
		fired += checkSchemeParity(t, "explicit", sp, core.Options{Schedule: rot[idx]})
	}
	if fired == 0 {
		t.Fatalf("no fast-fail events fired across the failing two-ring rotations")
	}
}

// FuzzRankSchemeEquivalence feeds generator seeds into the scheme-parity
// battery, so `go test -fuzz` explores specs and schedules the fixed
// corpus missed.
func FuzzRankSchemeEquivalence(f *testing.F) {
	for _, seed := range []int64{1, 7, 23, 41, 977} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		sp := specgen.RandomSpec(rng, rng.Intn(2) == 1)
		opts := core.Options{Schedule: rng.Perm(len(sp.Procs))}
		if rng.Intn(2) == 1 {
			opts.CycleResolution = core.IncrementalResolution
		}
		for _, kind := range engineKinds {
			checkSchemeParity(t, kind, sp, opts)
		}
	})
}
