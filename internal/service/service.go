package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"stsyn/internal/cli"
	"stsyn/internal/core"
	"stsyn/internal/prune"
	"stsyn/internal/service/jobs"
	"stsyn/internal/verify"
	"stsyn/pkg/stsynerr"
)

// Config configures a Server. Zero values select the documented defaults.
type Config struct {
	// Workers is the number of concurrent synthesis workers (default:
	// GOMAXPROCS). Engines run on their caller's goroutine, so a
	// single-schedule job keeps one CPU busy and Workers bounds CPU use for
	// those jobs. A Fanout job runs up to GOMAXPROCS engines at once on its
	// worker, one per schedule, so with fan-out jobs in flight CPU use may
	// exceed Workers.
	Workers int
	// QueueDepth is the number of jobs that may wait for a worker before
	// the server answers 503 (0 selects the default of 64). Negative means
	// no queue at all: jobs are only accepted when a worker is free at the
	// moment of submission.
	QueueDepth int
	// DefaultTimeout bounds jobs that do not ask for one (default 30s);
	// MaxTimeout clamps what jobs may ask for (default 5m). The timeout
	// covers queue wait plus synthesis.
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// CacheBytes is the result cache budget (default 64 MiB). Negative
	// disables caching.
	CacheBytes int64
	// JobsMax bounds the async job store: live jobs plus retained terminal
	// results (default 1024). A full store answers QueueFull.
	JobsMax int
	// JobTTL is how long a terminal async result is retained for polling
	// before eviction (default 10m). A later poll answers JobNotFound.
	JobTTL time.Duration
	// TenantRate and TenantBurst configure per-tenant token-bucket
	// admission across every synthesis-submitting endpoint: TenantRate
	// requests per second sustained (default 50), bursts up to TenantBurst
	// (default 2×rate). TenantRate < 0 disables admission control.
	TenantRate  float64
	TenantBurst int
	// Logf, when non-nil, receives one structured line per job and per
	// lifecycle event.
	Logf func(format string, args ...interface{})
}

// queueDepthUnset distinguishes "use the default" from an explicit 0.
const queueDepthUnset = 0

// Server runs synthesis jobs on a bounded worker pool, front-ended by a
// content-addressed result cache. It is safe for concurrent use.
type Server struct {
	cfg       Config
	jobs      chan *job
	cache     *resultCache
	store     *jobs.Store // async job store
	admission *admission  // nil when TenantRate < 0
	metrics   *Metrics
	logf      func(string, ...interface{})

	wg     sync.WaitGroup
	mu     sync.Mutex
	closed bool
	nextID atomic.Int64
}

type job struct {
	id int64
	//lint:ignore ctxflow request-scoped carrier: the job ferries its request's context through the worker queue, as http.Request does
	ctx    context.Context
	cancel context.CancelFunc
	norm   *Job
	resp   *Response
	err    *Error
	done   chan struct{}
	// onStart, when non-nil, runs as a worker picks the job up; returning
	// false (the async store saw it canceled first) skips the engine.
	onStart func() bool
}

// New builds a Server and starts its workers. Call Shutdown to stop them.
func New(cfg Config) *Server {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth == queueDepthUnset {
		cfg.QueueDepth = 64
	}
	if cfg.QueueDepth < 0 {
		cfg.QueueDepth = 0
	}
	if cfg.DefaultTimeout <= 0 {
		cfg.DefaultTimeout = 30 * time.Second
	}
	if cfg.MaxTimeout <= 0 {
		cfg.MaxTimeout = 5 * time.Minute
	}
	if cfg.CacheBytes == 0 {
		cfg.CacheBytes = 64 << 20
	}
	if cfg.JobsMax <= 0 {
		cfg.JobsMax = 1024
	}
	if cfg.JobTTL <= 0 {
		cfg.JobTTL = 10 * time.Minute
	}
	if cfg.TenantRate == 0 {
		cfg.TenantRate = 50
	}
	if cfg.TenantBurst <= 0 {
		cfg.TenantBurst = int(2 * cfg.TenantRate)
	}
	s := &Server{
		cfg:     cfg,
		jobs:    make(chan *job, cfg.QueueDepth),
		cache:   newResultCache(cfg.CacheBytes),
		store:   jobs.NewStore(cfg.JobsMax, cfg.JobTTL),
		metrics: newMetrics(),
		logf:    cfg.Logf,
	}
	if cfg.TenantRate > 0 {
		s.admission = newAdmission(cfg.TenantRate, cfg.TenantBurst)
	}
	if s.logf == nil {
		s.logf = func(string, ...interface{}) {}
	}
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Metrics exposes the server's counters (shared, live).
func (s *Server) Metrics() *Metrics { return s.metrics }

// QueueDepth returns the number of jobs currently waiting for a worker.
func (s *Server) QueueDepth() int { return len(s.jobs) }

// retryAfterHint estimates, in whole seconds, how long a rejected client
// should wait before retrying: the current backlog (plus the rejected job
// itself) times the mean job latency, divided across the worker pool. With
// no latency data yet it assumes 1s per job; the result is clamped to
// [1, 60].
func (s *Server) retryAfterHint() int {
	meanMS := s.metrics.MeanJobMS()
	if meanMS <= 0 {
		meanMS = 1000
	}
	secs := int(math.Ceil(float64(len(s.jobs)+1) * meanMS / float64(s.cfg.Workers) / 1000))
	if secs < 1 {
		secs = 1
	}
	if secs > 60 {
		secs = 60
	}
	return secs
}

// prepare resolves a request to a normalized job: spec build plus option
// normalization, with every failure already typed. Shared by the sync,
// async and batch paths so all three agree on the cache key.
func (s *Server) prepare(req *Request) (*Job, *Error) {
	sp, err := BuildSpec(req)
	if err != nil {
		return nil, asServiceError(err, stsynerr.InvalidRequest, "bad specification")
	}
	norm, err := Normalize(req, sp)
	if err != nil {
		return nil, asServiceError(err, stsynerr.UnsupportedOption, "bad options")
	}
	return norm, nil
}

// cached serves a normalized job from the result cache, marking the copy.
func (s *Server) cached(norm *Job) (*Response, bool) {
	resp, ok := s.cache.get(norm.Key)
	if !ok {
		s.metrics.CacheMisses.Add(1)
		return nil, false
	}
	s.metrics.CacheHits.Add(1)
	out := *resp // shallow copy; cached entries are immutable
	out.Cached = true
	s.logf("job=cache-hit protocol=%q key=%.12s", norm.Spec.Name, norm.Key)
	return &out, true
}

// timeoutFor clamps a request's timeout to the server's bounds.
func (s *Server) timeoutFor(req *Request) time.Duration {
	timeout := s.cfg.DefaultTimeout
	if req.TimeoutMS > 0 {
		timeout = time.Duration(req.TimeoutMS) * time.Millisecond
	}
	if timeout > s.cfg.MaxTimeout {
		timeout = s.cfg.MaxTimeout
	}
	return timeout
}

// enqueue submits a normalized job to the worker pool without blocking:
// jctx (already deadline-bounded) governs the run, and onStart (may be
// nil) is installed before the job is published — a worker may read it the
// instant the channel send lands. Failures are typed — ShuttingDown during
// drain, QueueFull with retry advice when the bounded queue has no room.
func (s *Server) enqueue(jctx context.Context, cancel context.CancelFunc, norm *Job, onStart func() bool) (*job, *Error) {
	j := &job{
		id:      s.nextID.Add(1),
		ctx:     jctx,
		cancel:  cancel,
		norm:    norm,
		done:    make(chan struct{}),
		onStart: onStart,
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		cancel()
		return nil, stsynerr.New(stsynerr.ShuttingDown, "server is shutting down")
	}
	select {
	case s.jobs <- j:
		s.mu.Unlock()
		return j, nil
	default:
		s.mu.Unlock()
		cancel()
		s.metrics.QueueRejected.Add(1)
		e := stsynerr.New(stsynerr.QueueFull, "job queue full, retry later")
		e.RetryAfter = s.retryAfterHint()
		return nil, e
	}
}

// Do runs one synthesis request to completion: cache lookup, then — on a
// miss — a queued job bounded by the request context and the job timeout.
// Errors are always *Error values carrying a registered name and HTTP
// status: malformed requests are 400s, semantically invalid ones (unknown
// protocol, engine or option) are 422s.
func (s *Server) Do(ctx context.Context, req *Request) (*Response, error) {
	norm, serr := s.prepare(req)
	if serr != nil {
		return nil, serr
	}
	if resp, ok := s.cached(norm); ok {
		return resp, nil
	}

	jctx, cancel := context.WithTimeout(ctx, s.timeoutFor(req))
	j, serr := s.enqueue(jctx, cancel, norm, nil)
	if serr != nil {
		return nil, serr
	}

	select {
	case <-j.done:
		if j.err != nil {
			return nil, j.err
		}
		return j.resp, nil
	case <-ctx.Done():
		// Client gone (or caller deadline): the worker observes jctx —
		// derived from ctx — at its next cancellation point and stops.
		return nil, stsynerr.Wrap(stsynerr.Canceled, "request cancelled", ctx.Err())
	}
}

// Shutdown stops accepting jobs, drains the queue, and waits for in-flight
// jobs to finish (or for ctx to expire). Safe to call more than once.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		close(s.jobs)
	}
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		s.logf("server drained")
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (s *Server) worker() {
	defer s.wg.Done()
	for j := range s.jobs {
		s.run(j)
	}
}

// run executes one job on this worker and publishes its outcome.
func (s *Server) run(j *job) {
	defer close(j.done)
	defer j.cancel()

	if err := j.ctx.Err(); err != nil {
		// Expired while queued: never start the engine.
		s.metrics.JobsCancelled.Add(1)
		j.err = timeoutError(err)
		s.logf("job=%d protocol=%q status=cancelled-in-queue err=%v", j.id, j.norm.Spec.Name, err)
		return
	}
	if j.onStart != nil && !j.onStart() {
		// The async store saw this job canceled before a worker got to it.
		s.metrics.JobsCancelled.Add(1)
		j.err = stsynerr.New(stsynerr.Canceled, "job cancelled")
		s.logf("job=%d protocol=%q status=cancelled-in-queue", j.id, j.norm.Spec.Name)
		return
	}

	s.metrics.JobsStarted.Add(1)
	start := time.Now()
	resp, err := s.synthesize(j.ctx, j.norm)
	elapsed := time.Since(start)
	s.metrics.ObserveJob(j.norm.Engine, elapsed)

	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			s.metrics.JobsCancelled.Add(1)
			j.err = timeoutError(err)
		} else {
			s.metrics.JobsFailed.Add(1)
			j.err = stsynerr.Wrap(stsynerr.SynthesisFailed, "synthesis failed", err)
		}
		s.logf("job=%d protocol=%q engine=%s status=error elapsed=%s err=%v",
			j.id, j.norm.Spec.Name, j.norm.Engine, elapsed.Round(time.Microsecond), err)
		return
	}

	resp.ElapsedMS = float64(elapsed.Microseconds()) / 1e3
	s.metrics.JobsSucceeded.Add(1)
	s.metrics.ObserveBDD(resp.BDD)
	s.metrics.ObserveExplicit(resp.Explicit)
	s.metrics.ObservePrune(resp.Prune)
	s.metrics.RankInfinityFastFail.Add(int64(resp.RankInfinityFastFail))
	if s.cfg.CacheBytes > 0 {
		if data, err := json.Marshal(resp); err == nil {
			s.cache.put(j.norm.Key, resp, int64(len(data))+int64(len(j.norm.Key)))
		}
	}
	j.resp = resp
	s.logf("job=%d protocol=%q engine=%s status=ok pass=%d added=%d elapsed=%s key=%.12s",
		j.id, j.norm.Spec.Name, j.norm.Engine, resp.Pass, resp.AddedGroups,
		elapsed.Round(time.Microsecond), j.norm.Key)
}

func timeoutError(err error) *Error {
	name := stsynerr.Timeout
	if errors.Is(err, context.Canceled) {
		name = stsynerr.Canceled
	}
	return stsynerr.Wrap(name, "synthesis did not finish in time", err)
}

// synthesize runs the job on the shared job path and turns a failed
// verdict into an internal error: a returned protocol is always verified.
func (s *Server) synthesize(ctx context.Context, norm *Job) (*Response, error) {
	out, err := Run(ctx, norm)
	if err != nil {
		return nil, err
	}
	if !out.Verdict.OK {
		return nil, fmt.Errorf("internal error: synthesized protocol failed verification: %s", out.Verdict.Reason)
	}
	return out.Response, nil
}

// Outcome is one run of the job path: the engine the final synthesis ran
// on, its result, the model checker's verdict on it and the encoded
// response.
type Outcome struct {
	Engine   core.Engine
	Result   *core.Result
	Verdict  verify.Verdict
	Response *Response
}

// Run is the one job path of every front end: the prune group, the
// fan-out over the rotations (quotiented when pruning), the synthesis, its
// verification and the encoding; ctx bounds the run. A fan-out job's
// Schedule becomes the winning schedule, and the winner's engine and result
// are verified and encoded as they are, without a second synthesis. A
// failed verdict is reported in the Outcome, not as an error.
func Run(ctx context.Context, norm *Job) (*Outcome, error) {
	factory := func() (core.Engine, error) { return cli.NewEngine(norm.Spec, norm.Engine) }
	opts := norm.Options()
	opts.Ctx = ctx

	// Prune-enabled jobs get the spec's schedule-automorphism group. The
	// quotient preserves the result bit for bit: it drops only orbit-mates
	// of schedules that still run.
	var group *prune.Group
	var pruneStats *PruneStats
	if norm.Prune {
		group = prune.DeriveGroup(norm.Spec)
		pruneStats = &PruneStats{GroupSize: group.Size()}
	}

	var e core.Engine
	var res *core.Result
	if norm.Fanout {
		stream := core.StreamSchedules(core.Rotations(len(norm.Spec.Procs)))
		if group != nil {
			// The rotations list is in lexicographic order and closed under
			// the (rotation-generated) group, so the O(1) canonical filter
			// applies. The quotient is drained eagerly — it is at most k
			// schedules — so the stats report the whole quotient even when
			// an early success stops the search before the stream is spent.
			q := prune.NewQuotientStream(group, stream, true)
			var reps [][]int
			for s, ok := q.Next(); ok; s, ok = q.Next() {
				reps = append(reps, s)
			}
			qs := q.Stats()
			pruneStats.SchedulesEmitted = qs.Emitted
			pruneStats.SchedulesPruned = qs.Pruned
			stream = core.StreamSchedules(reps)
		}
		best, _, err := core.TryScheduleStream(factory, opts, stream, runtime.GOMAXPROCS(0))
		if err != nil {
			return nil, err
		}
		norm.Schedule = best.Schedule
		e, res = best.Engine, best.Result
	} else {
		var err error
		if e, err = factory(); err != nil {
			return nil, err
		}
		if res, err = core.AddConvergence(e, opts); err != nil {
			return nil, err
		}
	}

	verdict := verify.StronglyStabilizing(e, res.Protocol)
	if norm.Convergence == core.Weak {
		verdict = verify.WeaklyStabilizing(e, res.Protocol)
	}
	if err := ctx.Err(); err != nil {
		// A cancelled engine can produce a bogus verdict; surface the
		// cancellation instead.
		return nil, err
	}
	resp := EncodeResult(e, res, norm, verdict.OK)
	resp.Prune = pruneStats
	return &Outcome{Engine: e, Result: res, Verdict: verdict, Response: resp}, nil
}
