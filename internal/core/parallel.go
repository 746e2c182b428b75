package core

import (
	"context"
	"errors"
	"runtime"
	"sync"
)

// EngineFactory builds a fresh engine for one synthesis attempt. Engines
// are not safe for concurrent use, so the parallel driver creates one per
// schedule.
type EngineFactory func() (Engine, error)

// ErrSkipped marks attempts that were never started because another
// schedule had already succeeded.
var ErrSkipped = errors.New("attempt skipped: another schedule already succeeded")

// Attempt is the outcome of one schedule's synthesis run.
type Attempt struct {
	Schedule []int
	Result   *Result
	Err      error
	// Engine is the engine the run synthesized on, set only on the winning
	// attempt TrySchedules and TryScheduleStream return, so a caller can
	// verify and encode the winner without synthesizing it again. Every
	// other attempt's engine is dropped, so a fan-out keeps at most one
	// finished engine alive.
	Engine Engine
}

// tryStream is the shared fan-out engine behind TrySchedules and
// TryScheduleStream: schedules are pulled from next in index order as
// worker slots free up, one heuristic instance runs per schedule, pulling
// stops once any attempt has succeeded, and every started attempt runs to
// completion. Because pulls are ordered, every index below a started one
// was also started — so the lowest-index success is a deterministic
// function of the schedule source alone, whatever the interleaving.
//
// record, when non-nil, observes every started attempt's terminal outcome
// (without its engine). tryStream returns the winning attempt, carrying its
// engine, with its index (bestIdx -1 when none), the number of schedules
// started, and the error of the lowest-index failed attempt.
func tryStream(factory EngineFactory, opts Options, next func() ([]int, bool), workers int, record func(idx int, a Attempt)) (best *Attempt, bestIdx, tried int, firstErr error) {
	ctx := opts.Ctx
	if ctx == nil {
		ctx = context.Background() //lint:ignore ctxflow documented API default: Options.Ctx nil means Background
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var mu sync.Mutex
	var bestEngine Engine
	bestIdx = -1
	errAt := -1
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for idx := 0; ; idx++ {
		// Acquiring the slot before pulling bounds both the concurrency and
		// how far ahead of the workers the stream is consumed.
		sem <- struct{}{}
		mu.Lock()
		won := bestIdx >= 0
		mu.Unlock()
		if won || ctx.Err() != nil {
			<-sem
			break
		}
		s, ok := next()
		if !ok {
			<-sem
			break
		}
		tried++
		wg.Add(1)
		go func(idx int, s []int) {
			defer wg.Done()
			defer func() { <-sem }()
			a := Attempt{Schedule: s}
			var e Engine
			if err := ctx.Err(); err != nil {
				a.Err = err
			} else if e, err = factory(); err != nil {
				a.Err = err
			} else {
				o := opts
				o.Schedule = s
				a.Result, a.Err = AddConvergence(e, o)
			}
			mu.Lock()
			if a.Err == nil {
				if bestIdx < 0 || idx < bestIdx {
					// The superseded winner's engine is released here, so
					// at most one finished engine is ever kept.
					bestIdx, best, bestEngine = idx, &a, e
				}
			} else if errAt < 0 || idx < errAt {
				errAt, firstErr = idx, a.Err
			}
			if record != nil {
				record(idx, a)
			}
			mu.Unlock()
		}(idx, s)
	}
	wg.Wait()
	if best != nil {
		best.Engine = bestEngine
	}
	return best, bestIdx, tried, firstErr
}

// TrySchedules realizes the paper's lightweight method (Figure 1): the
// success of the heuristic depends on the recovery schedule, and schedules
// are independent, so one heuristic instance is launched per schedule — the
// paper suggests separate machines; here a bounded pool of goroutines.
//
// It returns the successful attempt with the lowest schedule index along
// with every attempt's outcome; schedules never started because a lower
// index had already succeeded carry ErrSkipped. The winner is deterministic:
// attempts are started in index order, so the lowest-index success always
// runs, whatever the goroutine interleaving. If no schedule succeeds, the
// returned error is the first attempt's error.
//
// opts.Ctx, when set, bounds the whole fan-out: attempts not yet started
// when the context is cancelled fail fast with the context's error, and
// running attempts stop at their next cancellation point.
func TrySchedules(factory EngineFactory, opts Options, schedules [][]int, workers int) (*Attempt, []Attempt, error) {
	if len(schedules) == 0 {
		return nil, nil, errors.New("no schedules given")
	}
	ctx := opts.Ctx
	if ctx == nil {
		ctx = context.Background() //lint:ignore ctxflow documented API default: Options.Ctx nil means Background
	}
	attempts := make([]Attempt, len(schedules))
	started := make([]bool, len(schedules))
	for i := range attempts {
		attempts[i].Schedule = schedules[i]
	}
	record := func(idx int, a Attempt) {
		attempts[idx] = a
		started[idx] = true
	}
	best, bestIdx, _, _ := tryStream(factory, opts, StreamSchedules(schedules), workers, record)
	for i := range attempts {
		if !started[i] {
			if err := ctx.Err(); err != nil {
				attempts[i].Err = err
			} else {
				attempts[i].Err = ErrSkipped
			}
		}
	}
	if bestIdx >= 0 {
		attempts[bestIdx].Engine = best.Engine
		return &attempts[bestIdx], attempts, nil
	}
	return nil, attempts, attempts[0].Err
}

// TryScheduleStream is TrySchedules over a streaming schedule source:
// next yields schedules in index order (e.g. a ScheduleStream over all k!
// permutations, or SampleSchedules through StreamSchedules) and is only
// consumed as workers free up, so the set is never materialized.
//
// It returns the winning attempt — deterministically the success with the
// lowest stream index — and the number of schedules started. With no
// success, the error of the lowest-indexed failed attempt is returned; an
// empty stream is an error.
func TryScheduleStream(factory EngineFactory, opts Options, next func() ([]int, bool), workers int) (*Attempt, int, error) {
	best, _, tried, firstErr := tryStream(factory, opts, next, workers, nil)
	if best != nil {
		return best, tried, nil
	}
	if firstErr == nil {
		// No attempt started and none failed: either the stream was empty or
		// the context was already cancelled before the first pull.
		if opts.Ctx != nil {
			if err := opts.Ctx.Err(); err != nil {
				return nil, tried, err
			}
		}
		return nil, 0, errors.New("no schedules given")
	}
	return nil, tried, firstErr
}
