package core_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"stsyn/internal/core"
	"stsyn/internal/explicit"
	"stsyn/internal/protocols"
	"stsyn/internal/symbolic"
)

// classify buckets an attempt's outcome into exactly one of the four legal
// terminal states; anything else (or anything matching two buckets) is a
// bug in the fan-out driver.
func classify(t *testing.T, idx int, a core.Attempt) (success, skipped, ctxErr, realErr bool) {
	t.Helper()
	success = a.Err == nil
	skipped = errors.Is(a.Err, core.ErrSkipped)
	ctxErr = errors.Is(a.Err, context.Canceled) || errors.Is(a.Err, context.DeadlineExceeded)
	realErr = a.Err != nil && !skipped && !ctxErr
	n := 0
	for _, b := range []bool{success, skipped, ctxErr, realErr} {
		if b {
			n++
		}
	}
	if n != 1 {
		t.Fatalf("attempt %d: outcome not exactly one terminal state (err=%v)", idx, a.Err)
	}
	return
}

// checkAttempts asserts the TrySchedules postconditions: every attempt in a
// terminal state, schedules recorded, and — when a winner is returned — the
// winner is the success with the lowest schedule index.
func checkAttempts(t *testing.T, best *core.Attempt, attempts []core.Attempt, err error) {
	t.Helper()
	firstSuccess := -1
	for i, a := range attempts {
		if a.Schedule == nil {
			t.Fatalf("attempt %d: schedule not recorded", i)
		}
		success, _, _, _ := classify(t, i, a)
		if success && firstSuccess == -1 {
			firstSuccess = i
		}
	}
	switch {
	case best != nil:
		if err != nil {
			t.Fatalf("winner and error at once: %v", err)
		}
		if firstSuccess == -1 {
			t.Fatal("winner returned but no attempt succeeded")
		}
		if &attempts[firstSuccess] != best {
			t.Fatalf("winner is attempt %v, want lowest-index success %d", best.Schedule, firstSuccess)
		}
	case firstSuccess != -1:
		t.Fatalf("attempt %d succeeded but no winner returned", firstSuccess)
	case err == nil:
		t.Fatal("no winner and no error")
	}
}

// TestTrySchedulesStress hammers the parallel fan-out under the race
// detector: many schedules on a tiny worker pool, with the context
// cancelled mid-flight, across many rounds to vary the interleaving.
func TestTrySchedulesStress(t *testing.T) {
	sp := protocols.TokenRing(4, 3)
	factory := func() (core.Engine, error) { return explicit.New(sp, 0) }
	schedules := core.AllSchedules(len(sp.Procs)) // 24 attempts
	rounds := 30
	if testing.Short() {
		rounds = 5
	}
	for round := 0; round < rounds; round++ {
		ctx, cancel := context.WithCancel(context.Background())
		go func(round int) {
			// Cancel at a different point in the fan-out every round; the
			// very first rounds cancel before most attempts started.
			time.Sleep(time.Duration(round) * 200 * time.Microsecond)
			cancel()
		}(round)
		opts := core.Options{Ctx: ctx}
		best, attempts, err := core.TrySchedules(factory, opts, schedules, 2)
		cancel()
		if len(attempts) != len(schedules) {
			t.Fatalf("round %d: %d attempts for %d schedules", round, len(attempts), len(schedules))
		}
		checkAttempts(t, best, attempts, err)
	}
}

// TestTrySchedulesStressSymbolic runs a shorter cancellation stress on the
// symbolic engine (one manager per goroutine — managers are not shared).
func TestTrySchedulesStressSymbolic(t *testing.T) {
	sp := protocols.TokenRing(3, 3)
	factory := func() (core.Engine, error) { return symbolic.New(sp) }
	schedules := core.AllSchedules(len(sp.Procs)) // 6 attempts
	for round := 0; round < 8; round++ {
		ctx, cancel := context.WithCancel(context.Background())
		go func(round int) {
			time.Sleep(time.Duration(round) * time.Millisecond)
			cancel()
		}(round)
		best, attempts, err := core.TrySchedules(factory, core.Options{Ctx: ctx}, schedules, 2)
		cancel()
		checkAttempts(t, best, attempts, err)
	}
}

// TestTrySchedulesWinnerIsLowestIndex checks determinism without
// cancellation: with every schedule succeeding, the winner must be index 0.
func TestTrySchedulesWinnerIsLowestIndex(t *testing.T) {
	sp := protocols.TokenRing(3, 3)
	factory := func() (core.Engine, error) { return explicit.New(sp, 0) }
	schedules := core.Rotations(len(sp.Procs))
	best, attempts, err := core.TrySchedules(factory, core.Options{}, schedules, 3)
	if err != nil {
		t.Fatal(err)
	}
	checkAttempts(t, best, attempts, err)
	for i, a := range attempts {
		if a.Err == nil {
			if &attempts[i] != best {
				t.Fatalf("winner is not the lowest-index success (index %d)", i)
			}
			break
		}
	}
}
