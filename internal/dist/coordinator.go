// Package dist is the distributed synthesis tier: a coordinator that
// shards a schedule search across a fleet of stsyn-serve workers, a
// resilient HTTP client for talking to them, and a durable job journal
// that makes the whole pipeline restartable.
//
// The paper's lightweight method is embarrassingly parallel at the
// schedule level — whether the heuristic succeeds depends on the recovery
// schedule, and schedules are independent — but the search space is k!.
// The coordinator streams schedules (never materializing the space), cuts
// them into fixed-size shards, and dispatches each shard's schedules one
// HTTP request at a time. The winner is deterministic and identical to
// single-node core.TrySchedules: the success with the lowest global
// schedule index. On a win at index w the coordinator stops dispatching
// shards starting beyond w and cancels the in-flight ones, but shards
// covering indices below w always run to completion — a lower-index
// success must still be found if it exists.
package dist

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"sync"

	"stsyn/internal/core"
	"stsyn/internal/prune"
	"stsyn/internal/service"
)

// ErrNoWinner reports that every schedule in the search space failed.
var ErrNoWinner = errors.New("dist: synthesis failed on every schedule")

// ScheduleSource names a deterministic schedule search space. Coordinators
// and resumed coordinators derive identical spaces from the same source,
// so only the source — never the schedules — needs to be journaled.
type ScheduleSource struct {
	// Kind is "rotations" (default: the k cyclic rotations), "all" (full
	// k! enumeration, streamed), "sample" (N seeded random permutations),
	// or "list" (the explicit List).
	Kind string  `json:"kind"`
	N    int     `json:"n,omitempty"`
	Seed int64   `json:"seed,omitempty"`
	List [][]int `json:"list,omitempty"`
}

// stream returns the source's schedule stream for k processes plus the
// total schedule count (-1 when it overflows an int).
func (s *ScheduleSource) stream(k int) (func() ([]int, bool), int, error) {
	switch s.Kind {
	case "", "rotations":
		rot := core.Rotations(k)
		return core.StreamSchedules(rot), len(rot), nil
	case "all":
		total, ok := core.CountSchedules(k)
		if !ok {
			total = -1
		}
		return core.NewScheduleStream(k).Next, total, nil
	case "sample":
		if s.N <= 0 {
			return nil, 0, fmt.Errorf("dist: sample source needs n > 0, got %d", s.N)
		}
		scheds := core.SampleSchedules(k, s.N, rand.New(rand.NewSource(s.Seed)))
		return core.StreamSchedules(scheds), len(scheds), nil
	case "list":
		if len(s.List) == 0 {
			return nil, 0, errors.New("dist: list source has no schedules")
		}
		for i, sc := range s.List {
			if len(sc) != k { // a nil schedule would pass as the default one
				return nil, 0, fmt.Errorf("dist: list schedule %d has %d entries, want %d", i, len(sc), k)
			}
			if _, err := core.NormalizeSchedule(sc, k); err != nil {
				return nil, 0, fmt.Errorf("dist: list schedule %d: %w", i, err)
			}
		}
		return core.StreamSchedules(s.List), len(s.List), nil
	default:
		return nil, 0, fmt.Errorf("dist: unknown schedule source %q (want rotations, all, sample or list)", s.Kind)
	}
}

// String renders the source for logs and the journal's job header.
func (s ScheduleSource) String() string {
	switch s.Kind {
	case "", "rotations":
		return "rotations"
	case "sample":
		return fmt.Sprintf("sample:%d:%d", s.N, s.Seed)
	case "list":
		return fmt.Sprintf("list:%d", len(s.List))
	default:
		return s.Kind
	}
}

// Job is one distributed schedule search: a synthesis request template
// (its Schedule and Fanout must be empty — the coordinator owns the
// schedule) plus the search space to shard.
type Job struct {
	Request service.Request `json:"request"`
	Source  ScheduleSource  `json:"source"`
}

// JobKey is the job's content-addressed identity: a journal written for
// one key refuses to resume a different job.
func JobKey(job *Job) string {
	b, _ := json.Marshal(job)
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// Config configures a Coordinator.
type Config struct {
	// Client talks to the worker fleet (required).
	Client *Client
	// ShardSize is the number of consecutive schedules per shard
	// (default 4).
	ShardSize int
	// Concurrency bounds the shards in flight (default: the worker count).
	// The schedule stream is consumed at most Concurrency×ShardSize ahead
	// of the slowest shard, so even "all" sources stay O(1) in memory.
	Concurrency int
	// ShardRetries is how many times a shard is requeued after a transport
	// failure that survived the client's own retries. Zero selects the
	// default of 2; pass a negative value to disable requeues entirely.
	ShardRetries int
	// JournalPath, when set, makes the job durable: shard completions are
	// logged there and a restarted coordinator resumes, skipping finished
	// shards.
	JournalPath string
	// Metrics, when non-nil, receives the coordinator's counters (pass the
	// client's to get one unified exposition).
	Metrics *Metrics
	// Logf, when non-nil, receives one line per shard lifecycle event.
	Logf func(format string, args ...interface{})
}

// RunStats summarizes one Run.
type RunStats struct {
	TotalSchedules  int // size of the search space, -1 if unknown
	SchedulesTried  int // schedules actually dispatched this run
	SchedulesPruned int // schedules dropped pre-shard by the orbit quotient
	Requests        int // logical worker requests issued this run
	ShardsCompleted int
	ShardsCancelled int
	ShardRequeues   int
	ShardsResumed   int // shards skipped thanks to the journal
}

// JobResult is a successful distributed search: the winning worker
// response (raw bytes exactly as the worker sent them, for byte-level
// comparison and the journal) and the winning schedule's global index.
type JobResult struct {
	Winner      *service.Response
	WinnerRaw   json.RawMessage
	WinIndex    int
	WinSchedule []int
	Stats       RunStats
}

// Coordinator shards schedule searches across a worker fleet. Safe for
// concurrent use; runs sharing a JournalPath must not overlap.
type Coordinator struct {
	cfg     Config
	metrics *Metrics
	logf    func(string, ...interface{})
}

// NewCoordinator validates cfg and builds a Coordinator.
func NewCoordinator(cfg Config) (*Coordinator, error) {
	if cfg.Client == nil {
		return nil, errors.New("dist: coordinator needs a worker client")
	}
	if cfg.ShardSize <= 0 {
		cfg.ShardSize = 4
	}
	if cfg.Concurrency <= 0 {
		cfg.Concurrency = len(cfg.Client.cfg.Workers)
	}
	if cfg.ShardRetries < 0 {
		cfg.ShardRetries = 0
	} else if cfg.ShardRetries == 0 {
		cfg.ShardRetries = 2
	}
	c := &Coordinator{cfg: cfg, metrics: cfg.Metrics, logf: cfg.Logf}
	if c.metrics == nil {
		c.metrics = cfg.Client.Metrics()
	}
	if c.logf == nil {
		c.logf = func(string, ...interface{}) {}
	}
	return c, nil
}

// Metrics returns the counters the coordinator publishes to.
func (c *Coordinator) Metrics() *Metrics { return c.metrics }

// runState is the shared mutable state of one Run.
type runState struct {
	mu           sync.Mutex
	bestIdx      int // lowest global schedule index that succeeded, -1 if none
	bestSchedule []int
	bestRaw      json.RawMessage
	bestResp     *service.Response // nil when the win came from the journal
	cancels      map[int]context.CancelFunc
	completed    map[int]bool
	failed       []error
	stats        RunStats
}

// Run executes one distributed schedule search to completion (or resume).
// The winner is deterministic: the lowest-index schedule that synthesizes
// successfully, byte-identical to what a single-node search over the same
// source would pick.
func (c *Coordinator) Run(ctx context.Context, job Job) (*JobResult, error) {
	if job.Request.Fanout {
		return nil, errors.New("dist: request must not set fanout: the coordinator owns the schedule search")
	}
	if len(job.Request.Schedule) > 0 {
		return nil, errors.New("dist: request must not set a schedule: the coordinator owns the schedule search")
	}
	sp, err := service.BuildSpec(&job.Request)
	if err != nil {
		return nil, fmt.Errorf("dist: bad job request: %w", err)
	}
	// The workers would reject bad options on every schedule, and each
	// rejection would count as a failed schedule: check them once here.
	if _, err := service.Normalize(&job.Request, sp); err != nil {
		return nil, fmt.Errorf("dist: bad job options: %w", err)
	}
	k := len(sp.Procs)
	next, total, err := job.Source.stream(k)
	if err != nil {
		return nil, err
	}

	// Prune-enabled jobs quotient the stream before sharding: orbit-mates
	// of an already-emitted schedule never become worker requests. Global
	// indices then number the quotiented stream — consistently across
	// resumes, because the group derivation is deterministic and Prune is
	// part of the JobKey, so a journal never mixes pruned and unpruned
	// numbering. Workers see Prune on every request and memo locally.
	var q *prune.QuotientStream
	if job.Request.Prune {
		lexOrdered := job.Source.Kind == "" || job.Source.Kind == "rotations" || job.Source.Kind == "all"
		q = prune.NewQuotientStream(prune.DeriveGroup(sp), next, lexOrdered)
		next = q.Next
	}
	key := JobKey(&job)
	shardSize := c.cfg.ShardSize

	st := &runState{
		bestIdx:   -1,
		cancels:   make(map[int]context.CancelFunc),
		completed: make(map[int]bool),
		stats:     RunStats{TotalSchedules: total},
	}

	var jn *Journal
	replayed := map[int]*Record{}
	if c.cfg.JournalPath != "" {
		rep, err := ReplayJournal(c.cfg.JournalPath, key)
		if err != nil {
			return nil, err
		}
		if rep.Job != nil && rep.Job.ShardSize != shardSize {
			return nil, fmt.Errorf("dist: journal was written with shard size %d, configured %d",
				rep.Job.ShardSize, shardSize)
		}
		replayed = rep.Shards
		jn, err = OpenJournal(c.cfg.JournalPath)
		if err != nil {
			return nil, err
		}
		defer jn.Close()
		if rep.Job == nil {
			if err := jn.Append(&Record{Type: "job", JobKey: key, Source: job.Source.String(), ShardSize: shardSize}); err != nil {
				return nil, err
			}
		}
	}

	// Fold replayed shard wins into the initial best, and take the fast
	// path — zero worker requests — when the journal already proves the
	// winner: a win at index w with every shard covering indices ≤ w
	// complete.
	for _, rec := range replayed {
		if rec.WinIndex >= 0 && (st.bestIdx < 0 || rec.WinIndex < st.bestIdx) {
			st.bestIdx = rec.WinIndex
			st.bestSchedule = rec.WinSchedule
			st.bestRaw = rec.Response
		}
	}
	if st.bestIdx >= 0 {
		complete := true
		for s := 0; s <= st.bestIdx/shardSize; s++ {
			if _, ok := replayed[s]; !ok {
				complete = false
				break
			}
		}
		if complete {
			st.stats.ShardsResumed = st.bestIdx/shardSize + 1
			c.metrics.ShardsResumed.Add(int64(st.stats.ShardsResumed))
			c.logf("dist: job %.12s resumed: winner at index %d proven by journal, no work left",
				key, st.bestIdx)
			return c.finish(st)
		}
	}

	runCtx, cancelRun := context.WithCancel(ctx)
	defer cancelRun()
	sem := make(chan struct{}, c.cfg.Concurrency)
	var wg sync.WaitGroup
	for shard := 0; ; shard++ {
		start := shard * shardSize
		st.mu.Lock()
		b := st.bestIdx
		st.mu.Unlock()
		if (b >= 0 && start > b) || runCtx.Err() != nil {
			break
		}
		// The slot is taken before the shard's schedules are pulled, so the
		// stream is never consumed more than Concurrency shards ahead.
		sem <- struct{}{}
		scheds := make([][]int, 0, shardSize)
		for len(scheds) < shardSize {
			s, ok := next()
			if !ok {
				break
			}
			scheds = append(scheds, s)
		}
		if len(scheds) == 0 {
			<-sem
			break
		}
		if _, ok := replayed[shard]; ok {
			<-sem
			st.mu.Lock()
			st.completed[shard] = true
			st.stats.ShardsResumed++
			st.mu.Unlock()
			c.metrics.ShardsResumed.Add(1)
			continue
		}
		shardCtx, cancelShard := context.WithCancel(runCtx)
		st.mu.Lock()
		st.cancels[shard] = cancelShard
		st.mu.Unlock()
		wg.Add(1)
		go func(shard, start int, scheds [][]int) {
			defer wg.Done()
			defer func() { <-sem }()
			c.runShard(shardCtx, st, jn, key, job.Request, shard, start, scheds)
			st.mu.Lock()
			delete(st.cancels, shard)
			st.mu.Unlock()
			cancelShard()
		}(shard, start, scheds)
	}
	wg.Wait()

	if q != nil {
		pruned := q.Stats().Pruned
		st.mu.Lock()
		st.stats.SchedulesPruned = pruned
		st.mu.Unlock()
		c.metrics.SchedulesPruned.Add(int64(pruned))
	}

	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return c.finish(st)
}

// finish validates the run's outcome and builds the result.
func (c *Coordinator) finish(st *runState) (*JobResult, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.bestIdx < 0 {
		if len(st.failed) > 0 {
			return nil, fmt.Errorf("dist: job incomplete: %w", errors.Join(st.failed...))
		}
		return nil, fmt.Errorf("%w (%d schedules tried)", ErrNoWinner, st.stats.SchedulesTried)
	}
	// Determinism check: every shard covering indices at or below the
	// winner must have completed, or a lower-index success could exist.
	// (st.completed is empty on the journal fast path — the caller proved
	// completeness from the replay before calling.)
	if len(st.completed) > 0 || len(st.failed) > 0 {
		for s := 0; s <= st.bestIdx/c.cfg.ShardSize; s++ {
			if !st.completed[s] {
				return nil, fmt.Errorf("dist: shard %d did not complete; winner at index %d is not provably lowest: %w",
					s, st.bestIdx, errors.Join(st.failed...))
			}
		}
	}
	if st.bestResp == nil {
		var r service.Response
		if err := json.Unmarshal(st.bestRaw, &r); err != nil {
			return nil, fmt.Errorf("dist: journaled winner response is unreadable: %w", err)
		}
		st.bestResp = &r
	}
	return &JobResult{
		Winner:      st.bestResp,
		WinnerRaw:   st.bestRaw,
		WinIndex:    st.bestIdx,
		WinSchedule: st.bestSchedule,
		Stats:       st.stats,
	}, nil
}

// runShard dispatches one shard's schedules in order, one request each.
// Synthesis failures (422) advance to the next schedule; transport
// failures requeue the shard from its current position up to ShardRetries
// times. The shard journals its completion — full trial or a win — but a
// shard that stops early because a lower global index already won is
// cancelled, not completed, and is never journaled (its untried schedules
// would otherwise look exhausted on resume).
func (c *Coordinator) runShard(ctx context.Context, st *runState, jn *Journal, key string, base service.Request, shard, start int, scheds [][]int) {
	c.metrics.ShardsInFlight.Add(1)
	defer c.metrics.ShardsInFlight.Add(-1)

	cancelled := func() {
		st.mu.Lock()
		st.stats.ShardsCancelled++
		st.mu.Unlock()
		c.metrics.ShardsCancelled.Add(1)
		c.logf("dist: shard %d cancelled", shard)
	}

	requeues := 0
	win := -1
	var winSched []int
	var winRaw []byte
	var winResp *service.Response
	i := 0
	for i < len(scheds) {
		gi := start + i
		st.mu.Lock()
		b := st.bestIdx
		st.mu.Unlock()
		if b >= 0 && b < gi {
			cancelled()
			return
		}
		if ctx.Err() != nil {
			cancelled()
			return
		}
		req := base
		req.Schedule = scheds[i]
		reqID := fmt.Sprintf("%.8s-s%d-g%d", key, shard, gi)
		st.mu.Lock()
		st.stats.Requests++
		st.stats.SchedulesTried++
		st.mu.Unlock()
		c.metrics.SchedulesTried.Add(1)
		resp, raw, err := c.cfg.Client.Synthesize(ctx, &req, reqID)
		if err == nil {
			c.metrics.SchedulesSucceeded.Add(1)
			win, winSched, winRaw, winResp = gi, scheds[i], raw, resp
			i++
			c.observeWin(st, gi, winSched, winRaw, winResp)
			break // later indices in this shard cannot beat gi
		}
		if IsSynthesisFailure(err) {
			c.metrics.ScheduleFailures.Add(1)
			i++
			continue
		}
		if ctx.Err() != nil {
			cancelled()
			return
		}
		// Transport-level failure that survived the client's retries:
		// requeue the shard from this schedule.
		if requeues < c.cfg.ShardRetries {
			requeues++
			st.mu.Lock()
			st.stats.ShardRequeues++
			st.mu.Unlock()
			c.metrics.ShardRequeues.Add(1)
			c.logf("dist: shard %d requeued (%d/%d) at index %d after: %v",
				shard, requeues, c.cfg.ShardRetries, gi, err)
			continue
		}
		st.mu.Lock()
		st.failed = append(st.failed, fmt.Errorf("shard %d gave up at index %d: %w", shard, gi, err))
		st.mu.Unlock()
		c.logf("dist: shard %d failed permanently at index %d: %v", shard, gi, err)
		return
	}

	rec := &Record{
		Type: "shard", JobKey: key, Shard: shard, Start: start, Tried: i,
		WinIndex: win, WinSchedule: winSched, Response: winRaw,
	}
	if jn != nil {
		if err := jn.Append(rec); err != nil {
			st.mu.Lock()
			st.failed = append(st.failed, fmt.Errorf("shard %d: %w", shard, err))
			st.mu.Unlock()
			return
		}
	}
	st.mu.Lock()
	st.completed[shard] = true
	st.stats.ShardsCompleted++
	st.mu.Unlock()
	c.metrics.ShardsCompleted.Add(1)
	if win >= 0 {
		c.logf("dist: shard %d complete: win at index %d schedule %v", shard, win, winSched)
	} else {
		c.logf("dist: shard %d complete: all %d schedules failed", shard, i)
	}
}

// observeWin folds a shard's success into the global best and cancels
// in-flight shards that can no longer contain the winner.
func (c *Coordinator) observeWin(st *runState, gi int, sched []int, raw []byte, resp *service.Response) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.bestIdx >= 0 && st.bestIdx <= gi {
		return
	}
	st.bestIdx = gi
	st.bestSchedule = sched
	st.bestRaw = raw
	st.bestResp = resp
	for shard, cancel := range st.cancels {
		if shard*c.cfg.ShardSize > gi {
			cancel()
		}
	}
}

// Handler returns the coordinator's observability endpoints: /healthz and
// /metrics (shard lifecycle counters plus per-worker health gauges).
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintln(w, `{"status":"ok"}`)
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		gauges := map[string]float64{}
		for _, ws := range c.cfg.Client.Workers() {
			up := 1.0
			if ws.CoolingFor > 0 {
				up = 0
			}
			gauges[fmt.Sprintf("stsyn_dist_worker_up{worker=%q}", ws.URL)] = up
			gauges[fmt.Sprintf("stsyn_dist_worker_consecutive_failures{worker=%q}", ws.URL)] = float64(ws.Fails)
		}
		c.metrics.WritePrometheus(w, gauges)
	})
	return mux
}
