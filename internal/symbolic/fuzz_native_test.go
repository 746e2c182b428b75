package symbolic_test

import (
	"math/rand"
	"testing"

	"stsyn/internal/protocol"
	"stsyn/internal/specgen"
	"stsyn/internal/symbolic"
)

// FuzzCompilerVsEvaluation is the native-fuzzing form of
// TestFuzzCompilerAgainstEvaluation: the seed drives the random-spec
// generator, and the compiled invariant is checked against direct AST
// evaluation over the whole (tiny) state space.
func FuzzCompilerVsEvaluation(f *testing.F) {
	for _, seed := range []int64{1, 7, 42, 99, 2024} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		sp := specgen.RandomSpec(rng, rng.Intn(2) == 1)
		se, err := symbolic.New(sp)
		if err != nil {
			t.Fatalf("generator produced an invalid spec: %v", err)
		}
		inv := se.Invariant()

		ix := protocol.NewIndexer(sp)
		s := make(protocol.State, len(sp.Vars))
		for i := uint64(0); i < ix.Len(); i++ {
			ix.Decode(i, s)
			want := sp.Invariant.EvalBool(s)
			got := !se.IsEmpty(se.And(inv, se.Singleton(s)))
			if got != want {
				t.Fatalf("compiled invariant disagrees with evaluation at %v (%s)",
					s, sp.Invariant.Render(sp.VarNames()))
			}
		}
	})
}
