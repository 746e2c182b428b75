package prune

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"stsyn/internal/core"
	"stsyn/internal/specgen"
)

// FuzzQuotientCoverage is the quotient's randomized soundness battery.
// Each seed generates a rotation-symmetric ring spec (so DeriveGroup finds
// a non-trivial group by construction) and checks, over the full k! space:
//
//   - coverage: the emitted representatives' orbits partition every
//     schedule exactly once, each orbit exactly group-size large;
//   - winner preservation: the pruned search returns the same winning
//     schedule and transition groups as the unpruned search (or both fail);
//   - translate-back: synthesizing directly on a random orbit-mate of the
//     winner equals the automorphism image of the representative's result.
func FuzzQuotientCoverage(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		sp := specgen.RandomRingSpec(rng, true)
		if err := sp.Validate(); err != nil {
			t.Fatalf("RandomRingSpec generated an invalid spec: %v", err)
		}
		k := len(sp.Procs)
		g := DeriveGroup(sp)
		if g.Size() != k {
			t.Fatalf("ring spec derived group of size %d, want %d (rotation-symmetric by construction)", g.Size(), k)
		}

		all := core.AllSchedules(k)
		q := NewQuotientStream(g, core.StreamSchedules(all), true)
		reps := drain(q)
		covered := make(map[string]int)
		for _, s := range reps {
			orbit := g.Orbit(s)
			if len(orbit) != g.Size() {
				t.Fatalf("orbit of %v has %d members, want %d", s, len(orbit), g.Size())
			}
			for _, m := range orbit {
				covered[fmt.Sprint(m)]++
			}
		}
		if len(covered) != len(all) {
			t.Fatalf("representative orbits cover %d of %d schedules", len(covered), len(all))
		}
		for s, n := range covered {
			if n != 1 {
				t.Fatalf("schedule %s covered %d times, want exactly once", s, n)
			}
		}

		factory := explicitFactory(sp)
		bestU, _, errU := core.TrySchedules(factory, core.Options{}, all, 2)
		bestP, _, errP := core.TrySchedules(factory, core.Options{}, reps, 2)
		if (errU == nil) != (errP == nil) {
			t.Fatalf("outcome diverged: unpruned err=%v, pruned err=%v", errU, errP)
		}
		if errU != nil {
			return
		}
		if !sameSchedule(bestU.Schedule, bestP.Schedule) {
			t.Fatalf("winning schedule diverged: unpruned %v, pruned %v", bestU.Schedule, bestP.Schedule)
		}
		if u, p := protoKeys(bestU.Result.Protocol), protoKeys(bestP.Result.Protocol); !reflect.DeepEqual(u, p) {
			t.Fatalf("winning protocol diverged: %d vs %d groups", len(u), len(p))
		}

		// Translate-back on a random orbit-mate of the winner.
		orbit := g.Orbit(bestP.Schedule)
		mate := orbit[rng.Intn(len(orbit))]
		rep, via := g.RepresentativeOf(mate)
		if !sameSchedule(rep, bestP.Schedule) {
			t.Fatalf("orbit-mate %v maps to representative %v, want winner %v", mate, rep, bestP.Schedule)
		}
		e, err := factory()
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.AddConvergence(e, core.Options{Schedule: mate})
		if err != nil {
			t.Fatalf("winner's orbit-mate %v failed where the representative won: %v", mate, err)
		}
		repProto := bestP.Result.Protocol
		translated := make(map[string]bool, len(repProto))
		for _, pg := range TranslateWinner(sp, via, protocolGroupsOf(repProto)) {
			translated[string(pg.Key())] = true
		}
		direct := make(map[string]bool)
		for key := range protoKeys(res.Protocol) {
			direct[string(key)] = true
		}
		if !reflect.DeepEqual(direct, translated) {
			t.Fatalf("schedule %v: direct synthesis != translated representative (%d vs %d groups)",
				mate, len(direct), len(translated))
		}
	})
}
