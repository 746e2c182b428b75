package symbolic_test

import (
	"errors"
	"math/rand"
	"testing"

	"stsyn/internal/core"
	"stsyn/internal/protocol"
	"stsyn/internal/specgen"
	"stsyn/internal/symbolic"
)

// errClass maps a synthesis error to its sentinel, so runs under different
// variable orders compare by failure mode rather than by witness state
// (error messages embed an example state, and which cube PickCube reports
// legitimately depends on the variable order).
func errClass(err error) error {
	for _, s := range []error{
		core.ErrNotClosed,
		core.ErrUnresolvableCycle,
		core.ErrNoStabilizingVersion,
		core.ErrDeadlocksRemain,
	} {
		if errors.Is(err, s) {
			return s
		}
	}
	return err
}

// FuzzReorderEquivalence pins that the variable order is a pure
// performance choice: for a random spec and a random permutation of its
// variables, synthesis under the permuted order must agree with the
// default-order oracle on both the protocol key set and the error class.
func FuzzReorderEquivalence(f *testing.F) {
	for _, seed := range []int64{3, 11, 42, 512, 4096} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		sp := specgen.RandomSpec(rng, rng.Intn(2) == 1)

		run := func(order []int) (map[protocol.Key]bool, error) {
			var (
				e   *symbolic.Engine
				err error
			)
			if order == nil {
				e, err = symbolic.New(sp)
			} else {
				e, err = symbolic.NewWithOrder(sp, order)
			}
			if err != nil {
				t.Fatalf("generator produced an invalid spec: %v", err)
			}
			res, err := core.AddConvergence(e, core.Options{})
			if err != nil {
				return nil, err
			}
			return protoKeys(res.Protocol), nil
		}

		wantKeys, wantErr := run(nil)
		keys, err := run(rand.New(rand.NewSource(seed ^ 0x5eed)).Perm(len(sp.Vars)))
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("permuted: error mismatch: got %v, oracle %v", err, wantErr)
		}
		if err != nil {
			if !errors.Is(errClass(err), errClass(wantErr)) {
				t.Fatalf("permuted: error class diverged: got %q, oracle %q", err, wantErr)
			}
			return
		}
		if !sameKeySets(keys, wantKeys) {
			t.Fatal("permuted: synthesized protocol diverged from the default-order oracle")
		}
	})
}
