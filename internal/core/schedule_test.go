package core_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"stsyn/internal/core"
	"stsyn/internal/explicit"
	"stsyn/internal/protocols"
	"stsyn/internal/symbolic"
	"stsyn/internal/verify"
)

// The stream yields exactly the k! permutations, in strictly increasing
// lexicographic order, starting at the identity, and AllSchedules is its
// materialization.
func TestScheduleStreamEnumerates(t *testing.T) {
	for k := 1; k <= 6; k++ {
		want, ok := core.CountSchedules(k)
		if !ok {
			t.Fatalf("k=%d: factorial overflow", k)
		}
		st := core.NewScheduleStream(k)
		var prev []int
		seen := make(map[string]bool)
		n := 0
		for s, more := st.Next(); more; s, more = st.Next() {
			if n == 0 && !reflect.DeepEqual(s, core.IdentitySchedule(k)) {
				t.Fatalf("k=%d: first schedule %v, want identity", k, s)
			}
			if len(s) != k {
				t.Fatalf("k=%d: schedule %v has wrong length", k, s)
			}
			cp := append([]int(nil), s...)
			sort.Ints(cp)
			for i, v := range cp {
				if v != i {
					t.Fatalf("k=%d: %v is not a permutation", k, s)
				}
			}
			if prev != nil && !lexLess(prev, s) {
				t.Fatalf("k=%d: %v not lexicographically after %v", k, s, prev)
			}
			key := fmt.Sprint(s)
			if seen[key] {
				t.Fatalf("k=%d: duplicate %v", k, s)
			}
			seen[key] = true
			prev = s
			n++
		}
		if n != want {
			t.Fatalf("k=%d: streamed %d schedules, want %d", k, n, want)
		}
		if all := core.AllSchedules(k); len(all) != want {
			t.Fatalf("k=%d: AllSchedules returned %d", k, len(all))
		}
	}
	if _, more := core.NewScheduleStream(0).Next(); more {
		t.Error("k=0 stream yielded a schedule")
	}
}

func lexLess(a, b []int) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

func TestCountSchedules(t *testing.T) {
	for k, want := range map[int]int{1: 1, 4: 24, 6: 720, 10: 3628800} {
		if got, ok := core.CountSchedules(k); !ok || got != want {
			t.Errorf("CountSchedules(%d) = %d, %v; want %d", k, got, ok, want)
		}
	}
	if _, ok := core.CountSchedules(21); ok {
		t.Error("CountSchedules(21) did not report overflow")
	}
}

// Sampling is deterministic per seed, yields distinct valid permutations,
// and degrades to full enumeration when n >= k!.
func TestSampleSchedules(t *testing.T) {
	a := core.SampleSchedules(7, 10, rand.New(rand.NewSource(42)))
	b := core.SampleSchedules(7, 10, rand.New(rand.NewSource(42)))
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different samples")
	}
	if len(a) != 10 {
		t.Fatalf("sampled %d schedules, want 10", len(a))
	}
	seen := make(map[string]bool)
	for _, s := range a {
		cp := append([]int(nil), s...)
		sort.Ints(cp)
		for i, v := range cp {
			if v != i {
				t.Fatalf("sample %v is not a permutation", s)
			}
		}
		if key := fmt.Sprint(s); seen[key] {
			t.Fatalf("duplicate sample %v", s)
		} else {
			seen[key] = true
		}
	}
	c := core.SampleSchedules(7, 10, rand.New(rand.NewSource(43)))
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds produced identical samples")
	}
	if all := core.SampleSchedules(3, 100, rand.New(rand.NewSource(1))); len(all) != 6 {
		t.Errorf("oversized sample returned %d schedules, want all 6", len(all))
	}
}

// TryScheduleStream agrees with TrySchedules on the winning schedule and
// protocol for the rotations of the token ring, and pulls no more of the
// stream than it needs once a success exists.
func TestTryScheduleStreamMatchesTrySchedules(t *testing.T) {
	sp := protocols.TokenRing(4, 3)
	factory := func() (core.Engine, error) { return explicit.New(sp, 0) }
	rot := core.Rotations(4)

	ref, _, err := core.TrySchedules(factory, core.Options{}, rot, len(rot))
	if err != nil {
		t.Fatal(err)
	}
	got, tried, err := core.TryScheduleStream(factory, core.Options{}, core.StreamSchedules(rot), 2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Schedule, ref.Schedule) {
		t.Errorf("stream winner %v, TrySchedules winner %v", got.Schedule, ref.Schedule)
	}
	if len(got.Result.Protocol) != len(ref.Result.Protocol) {
		t.Errorf("stream protocol has %d groups, TrySchedules %d",
			len(got.Result.Protocol), len(ref.Result.Protocol))
	}
	if tried < 1 || tried > len(rot) {
		t.Errorf("tried = %d, want within [1, %d]", tried, len(rot))
	}

	// All schedules failing surfaces the lowest-indexed error.
	failing := protocols.GoudaAcharyaMatching(4)
	ffactory := func() (core.Engine, error) { return explicit.New(failing, 0) }
	_, tried, err = core.TryScheduleStream(ffactory, core.Options{}, core.StreamSchedules(core.Rotations(4)), 2)
	if err == nil {
		t.Fatal("all-failing stream returned no error")
	}
	if tried != 4 {
		t.Errorf("tried = %d, want 4 (every schedule attempted)", tried)
	}

	// Empty stream is an error.
	if _, _, err := core.TryScheduleStream(factory, core.Options{}, core.StreamSchedules(nil), 2); err == nil {
		t.Error("empty stream returned no error")
	}

	// An already-cancelled context surfaces the context error, not the
	// misleading empty-stream error.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err = core.TryScheduleStream(factory, core.Options{Ctx: ctx}, core.StreamSchedules(rot), 2)
	if !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled context err = %v, want context.Canceled", err)
	}
}

// The winner of a stream search is deterministic: the lowest-index success
// runs to completion even when a higher-index attempt finishes first.
func TestTryScheduleStreamDeterministicWinner(t *testing.T) {
	sp := protocols.TokenRing(4, 3)
	factory := func() (core.Engine, error) { return explicit.New(sp, 0) }
	want := core.IdentitySchedule(4)
	for i := 0; i < 8; i++ {
		st := core.NewScheduleStream(4)
		got, _, err := core.TryScheduleStream(factory, core.Options{}, st.Next, 4)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Schedule, want) {
			t.Fatalf("run %d: winner %v, want %v", i, got.Schedule, want)
		}
	}
}

// TrySchedules and TryScheduleStream hand back the winner's engine, so its
// protocol can be verified without synthesizing the schedule again; every
// other attempt drops its engine. Four workers run all four rotations, so losing
// successes exist alongside the winner.
func TestWinnerCarriesEngine(t *testing.T) {
	sp := protocols.TokenRing(4, 3)
	factories := map[string]core.EngineFactory{
		"explicit": func() (core.Engine, error) { return explicit.New(sp, 0) },
		"symbolic": func() (core.Engine, error) { return symbolic.New(sp) },
	}
	for name, factory := range factories {
		t.Run(name, func(t *testing.T) {
			rot := core.Rotations(4)
			best, attempts, err := core.TrySchedules(factory, core.Options{}, rot, len(rot))
			if err != nil {
				t.Fatal(err)
			}
			if best.Engine == nil {
				t.Fatal("TrySchedules winner carries no engine")
			}
			if v := verify.StronglyStabilizing(best.Engine, best.Result.Protocol); !v.OK {
				t.Fatalf("winner's engine rejects its protocol: %s", v.Reason)
			}
			for i := range attempts {
				a := &attempts[i]
				if a == best {
					continue
				}
				if a.Engine != nil {
					t.Errorf("attempt %d (%v, err=%v) kept its engine", i, a.Schedule, a.Err)
				}
			}

			got, _, err := core.TryScheduleStream(factory, core.Options{}, core.StreamSchedules(rot), len(rot))
			if err != nil {
				t.Fatal(err)
			}
			if got.Engine == nil {
				t.Fatal("TryScheduleStream winner carries no engine")
			}
			if v := verify.StronglyStabilizing(got.Engine, got.Result.Protocol); !v.OK {
				t.Fatalf("stream winner's engine rejects its protocol: %s", v.Reason)
			}
		})
	}
}
