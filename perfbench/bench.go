package main

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"
)

// metricDef names one reported metric. The tables below are the harness's
// side of BENCHMARK.json; a test keeps the two identical.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

var endToEndMetrics = []metricDef{
	{"setup_s", "s", "lower"},
	{"wall_s", "s", "lower"},
	{"solve_ms_geomean", "ms", "lower"},
	{"latency_p50_ms", "ms", "lower"},
	{"cpu_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

var perLayerMetrics = []metricDef{
	{"core.build_ms", "ms", "lower"},
	{"core.solve_ms", "ms", "lower"},
	{"core.ranking_ms", "ms", "lower"},
	{"core.scc_ms", "ms", "lower"},
	{"core.scc_calls", "count", "lower"},
	{"core.sccs_found", "count", "lower"},
	{"core.passes_ms", "ms", "lower"},
	{"core.pass1_ms", "ms", "lower"},
	{"core.pass2_ms", "ms", "lower"},
	{"core.pass3_ms", "ms", "lower"},
	{"core.fastfail", "count", "higher"},
	{"verify.ms", "ms", "lower"},
	{"encode.ms", "ms", "lower"},
	{"explicit.pre_calls", "count", "lower"},
	{"explicit.post_calls", "count", "lower"},
	{"explicit.group_tests", "count", "lower"},
	{"bdd.cache_lookups", "count", "lower"},
	{"bdd.cache_hit_rate", "1", "higher"},
	{"bdd.peak_live_nodes", "count", "lower"},
	{"bdd.gc_runs", "count", "lower"},
	{"bdd.gc_reclaimed", "count", "lower"},
	{"go.alloc_mb", "MB", "lower"},
	{"go.gc_cycles", "count", "lower"},
	{"go.gc_pause_ms", "ms", "lower"},
	{"service.handler_ms", "ms", "lower"},
	{"service.hit_ms", "ms", "lower"},
	{"service.miss_ms", "ms", "lower"},
	{"service.overhead_ms", "ms", "lower"},
	{"service.cache_hit_ratio", "1", "higher"},
	{"service.async_wait_ms", "ms", "lower"},
	{"service.async_polls", "count", "lower"},
	{"service.latency_p95_ms", "ms", "lower"},
	{"service.batch_deduped", "count", "higher"},
	{"service.rejected", "count", "lower"},
	{"dist.requests", "count", "lower"},
	{"dist.schedules_tried", "count", "lower"},
	{"dist.shards_cancelled", "count", "lower"},
	{"dist.requeues", "count", "lower"},
	{"dist.worker_busy_ms", "ms", "lower"},
	{"dist.overhead_ratio", "1", "lower"},
	{"prune.schedules_pruned", "count", "higher"},
	{"prune.memo_hit_ratio", "1", "higher"},
	{"dist.job_ms_geomean.prune", "ms", "lower"},
	{"dist.job_ms_geomean.noprune", "ms", "lower"},
	{"residual_ms", "ms", "lower"},
	{"trace.overhead_ratio", "1", "lower"},
}

// op is one timed operation: a CLI case, a service request or a dist job.
type op struct {
	key    string // what ran: case name, request index or job name
	ms     float64
	cpuMS  float64 // process CPU during the op (sequential workloads)
	failed bool
}

// roundCtx collects one round: its timed ops, its wall and CPU time, and —
// in traced rounds — its per-layer values.
type roundCtx struct {
	index  int
	tr     *tracer // nil in untraced rounds
	setup  time.Duration
	wall   time.Duration
	cpu    time.Duration
	layers map[string]float64

	mu       sync.Mutex
	ops      []op
	failures []string
}

// record appends an op and returns its index in rc.ops.
func (rc *roundCtx) record(o op) int {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	rc.ops = append(rc.ops, o)
	return len(rc.ops) - 1
}

// fail notes why an output was rejected; the caller marks its op failed.
func (rc *roundCtx) fail(format string, args ...interface{}) {
	rc.mu.Lock()
	rc.failures = append(rc.failures, fmt.Sprintf("round %d: ", rc.index)+fmt.Sprintf(format, args...))
	rc.mu.Unlock()
}

// session is one set-up instance of a workload: its inputs and, for the
// HTTP workloads, its servers.
type session interface {
	// run executes the workload's fixed operation list once, recording
	// every op (and its correctness) in rc and setting rc.wall and rc.cpu.
	run(rc *roundCtx) error
	close() error
}

// workload is one benchmark workload.
type workload struct {
	// setup builds the inputs from the seed and starts what the operation
	// list needs, up to and including an untimed warm-up request; it is
	// what setup_s times.
	setup func(seed int64, tr *tracer) (session, error)
	// check, when set, re-checks the recorded outputs against an
	// independent reference after the timed rounds (untimed).
	check func(rounds []*roundCtx) error
	// sequential workloads run their ops one at a time, so the operation
	// list's time is the sum of its ops.
	sequential bool
	// finishLayers, when set, adds per-layer values that aggregate across
	// the traced rounds.
	finishLayers func(traced []*roundCtx, into map[string]float64)
}

// setup_s is a millisecond-scale time, so it is the median of many
// set-ups: besides each round's own, extraPerRound more (each torn down at
// once) run before each round until extraSetups have run. Spreading them
// over the rounds keeps one slow stretch of the host from holding them all.
// The first warmSetups of the process are not timed: they pay for the
// process start (first use of code paths, heap growth), which a fresh
// process pays once and setup_s leaves out.
const (
	extraSetups   = 96
	extraPerRound = 32
	warmSetups    = 2
)

type outcome struct {
	rounds   []*roundCtx
	setups   []float64 // seconds
	failures []string
}

// measure runs rounds of w until the budget is spent. In traced mode the
// rounds alternate untraced (even) and traced (odd), so the tracing
// overhead is measured in the same process.
func measure(w *workload, seed int64, budget time.Duration, traced bool, tr *tracer) (*outcome, error) {
	out := &outcome{}
	// setupOnce sets up and tears down at once, recording the set-up time
	// when timed.
	setupOnce := func(timed bool) error {
		runtime.GC()
		t0 := time.Now()
		s, err := w.setup(seed, nil)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		if timed {
			out.setups = append(out.setups, time.Since(t0).Seconds())
		}
		if err := s.close(); err != nil {
			return fmt.Errorf("tear-down: %w", err)
		}
		return nil
	}
	extra := func() error {
		for i := 0; i < extraPerRound && len(out.setups) < extraSetups+len(out.rounds); i++ {
			if err := setupOnce(true); err != nil {
				return err
			}
		}
		return nil
	}
	for i := 0; i < warmSetups; i++ {
		if err := setupOnce(false); err != nil {
			return nil, err
		}
	}
	minRounds := 1
	if traced {
		minRounds = 2
	}
	start := time.Now()
	var costs []time.Duration
	for r := 0; startAnotherRound(time.Since(start), budget, costs, minRounds); r++ {
		rStart := time.Now()
		if err := extra(); err != nil {
			return nil, err
		}
		rc := &roundCtx{index: r, layers: map[string]float64{}}
		if traced && r%2 == 1 {
			rc.tr = tr
			tr.setRound(r)
		}
		runtime.GC()
		t0 := time.Now()
		s, err := w.setup(seed, rc.tr)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		rc.setup = time.Since(t0)
		out.setups = append(out.setups, rc.setup.Seconds())
		runtime.GC()
		err = s.run(rc)
		if cerr := s.close(); err == nil && cerr != nil {
			err = fmt.Errorf("tear-down: %w", cerr)
		}
		if err != nil {
			return nil, err
		}
		if rc.tr != nil {
			self := selfTimes(rc.tr.roundSpans(r))
			rc.layers["core.build_ms"] += self[layerBuild]
			rc.layers["core.solve_ms"] += self[layerSolve]
			rc.layers["verify.ms"] += self[layerVerify]
			rc.layers["encode.ms"] += self[layerEncode]
			rc.layers["service.handler_ms"] += self[layerHandler]
			rc.layers["dist.worker_busy_ms"] += self[layerWorker]
			rc.layers["residual_ms"] += self[layerOp]
		}
		out.rounds = append(out.rounds, rc)
		costs = append(costs, time.Since(rStart))
		fmt.Printf("# round %d: set-up %.3f ms, wall %.4f s, cpu %.4f s, %d ops, traced %v\n",
			r, ms(rc.setup), rc.wall.Seconds(), rc.cpu.Seconds(), len(rc.ops), rc.tr != nil)
	}
	fmt.Printf("# set-ups (ms, in order):")
	for _, s := range out.setups {
		fmt.Printf(" %.3f", s*1000)
	}
	fmt.Println()
	if w.check != nil {
		if err := w.check(out.rounds); err != nil {
			return nil, err
		}
	}
	for _, rc := range out.rounds {
		out.failures = append(out.failures, rc.failures...)
	}
	return out, nil
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is a metric with the number of samples behind it.
type report struct {
	def   metricDef
	value float64
	n     int
	what  string
}

// endToEnd computes the end-to-end metrics of an untraced run. Every
// timing is a median: each operation (case, job, or request of the list)
// is taken at its median over the rounds, set-up at its median repetition.
func endToEnd(w *workload, o *outcome) ([]report, error) {
	var walls, cpus []float64
	byKey, cpuByKey := map[string][]float64{}, map[string][]float64{}
	for _, rc := range o.rounds {
		walls = append(walls, rc.wall.Seconds())
		cpus = append(cpus, rc.cpu.Seconds())
		for _, op := range rc.ops {
			if !op.failed {
				byKey[op.key] = append(byKey[op.key], op.ms)
				cpuByKey[op.key] = append(cpuByKey[op.key], op.cpuMS)
			}
		}
	}
	def := func(name string) metricDef {
		for _, d := range endToEndMetrics {
			if d.Name == name {
				return d
			}
		}
		panic("unknown metric " + name)
	}
	var out []report
	add := func(name string, v float64, ok bool, n int, what string) error {
		if !ok || !(v > 0) {
			return fmt.Errorf("%s: no valid value from %d %s", name, n, what)
		}
		out = append(out, report{def(name), v, n, what})
		return nil
	}
	s, ok := median(o.setups)
	if err := add("setup_s", s, ok, len(o.setups), "set-ups"); err != nil {
		return nil, err
	}
	opMed, n := perKeyMedians(byKey)
	cpuMed, _ := perKeyMedians(cpuByKey)
	if w.sequential {
		// The ops run one at a time, so the list takes the sum of its ops.
		if err := add("wall_s", sum(opMed)/1000, len(opMed) > 0, n, "op samples, sum of per-op medians"); err != nil {
			return nil, err
		}
	} else {
		v, ok := median(walls)
		if err := add("wall_s", v, ok, len(walls), "rounds"); err != nil {
			return nil, err
		}
	}
	g, ok := geomean(opMed)
	if err := add("solve_ms_geomean", g, ok, len(opMed), "per-op medians"); err != nil {
		return nil, err
	}
	p50, ok := median(opMed)
	if err := add("latency_p50_ms", p50, ok, len(opMed), "per-op medians"); err != nil {
		return nil, err
	}
	if w.sequential {
		if err := add("cpu_s", sum(cpuMed)/1000, len(cpuMed) > 0, n, "op samples, sum of per-op medians"); err != nil {
			return nil, err
		}
	} else {
		c, ok := median(cpus)
		if err := add("cpu_s", c, ok, len(cpus), "rounds"); err != nil {
			return nil, err
		}
	}
	rss, ok := peakRSSMB()
	if err := add("peak_rss_mb", rss, ok, 1, "process"); err != nil {
		return nil, err
	}
	return out, nil
}

// perLayer computes the per-layer metrics of a traced run: the median over
// traced rounds of each round's value, plus the cross-round aggregates.
// A layer the workload does not reach reads 0.
func perLayer(w *workload, o *outcome) []report {
	var traced, plain []*roundCtx
	for _, rc := range o.rounds {
		if rc.tr != nil {
			traced = append(traced, rc)
		} else {
			plain = append(plain, rc)
		}
	}
	vals := map[string]float64{}
	names := map[string]bool{}
	for _, rc := range traced {
		for k := range rc.layers {
			names[k] = true
		}
	}
	for k := range names {
		xs := make([]float64, 0, len(traced))
		for _, rc := range traced {
			xs = append(xs, rc.layers[k])
		}
		vals[k], _ = median(xs)
	}
	if w.finishLayers != nil {
		w.finishLayers(traced, vals)
	}
	// The tail of the per-operation medians, taken over the untraced rounds
	// so the timers do not stretch it; refused (0) below 200 operations.
	if p95, ok := tailPercentile(perOpMedians(plain), 0.95); ok {
		vals["service.latency_p95_ms"] = p95
	}
	if a, ok := median(wallsOf(traced)); ok {
		if b, ok := median(wallsOf(plain)); ok && b > 0 {
			vals["trace.overhead_ratio"] = a/b - 1
		}
	}
	out := make([]report, 0, len(perLayerMetrics))
	for _, d := range perLayerMetrics {
		out = append(out, report{d, vals[d.Name], len(traced), "traced rounds"})
	}
	return out
}

// perOpMedians returns each operation's median time over the rounds rs,
// failed operations left out.
func perOpMedians(rs []*roundCtx) []float64 {
	byKey := map[string][]float64{}
	for _, rc := range rs {
		for _, op := range rc.ops {
			if !op.failed {
				byKey[op.key] = append(byKey[op.key], op.ms)
			}
		}
	}
	m, _ := perKeyMedians(byKey)
	return m
}

func wallsOf(rs []*roundCtx) []float64 {
	out := make([]float64, 0, len(rs))
	for _, rc := range rs {
		out = append(out, rc.wall.Seconds())
	}
	return out
}

// failedOps counts attempted and failed ops across the rounds.
func failedOps(o *outcome) (attempted, failed int) {
	for _, rc := range o.rounds {
		for _, op := range rc.ops {
			attempted++
			if op.failed {
				failed++
			}
		}
	}
	return attempted, failed
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
