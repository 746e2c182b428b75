package service

import (
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Metrics aggregates the service's observability counters. All methods are
// safe for concurrent use; counters are monotonic and suitable for
// Prometheus-style scraping via WritePrometheus.
type Metrics struct {
	JobsStarted   atomic.Int64
	JobsSucceeded atomic.Int64
	JobsFailed    atomic.Int64
	JobsCancelled atomic.Int64

	CacheHits   atomic.Int64
	CacheMisses atomic.Int64

	QueueRejected atomic.Int64

	// Async job API observability.
	AsyncSubmitted atomic.Int64 // jobs accepted by POST /v1/jobs
	AsyncCanceled  atomic.Int64 // jobs canceled by DELETE /v1/jobs/{id}

	// Batch endpoint observability.
	BatchRequests  atomic.Int64 // POST /v1/batch calls accepted
	BatchItems     atomic.Int64 // synthesis requests carried by batches
	BatchDeduped   atomic.Int64 // batch items deduplicated within a batch
	BatchCacheHits atomic.Int64 // unique batch items served from the cache

	// Per-tenant admission observability.
	AdmissionRejected atomic.Int64 // requests rejected by token-bucket admission

	// BDD substrate observability, aggregated across symbolic-engine jobs
	// (each job has its own manager, so counters are summed at job end and
	// the node gauges track the most recent / largest job).
	BDDGCRuns         atomic.Int64 // cumulative scratch-manager drops
	BDDGCReclaimed    atomic.Int64 // cumulative nodes those drops released
	BDDCacheHits      atomic.Int64 // cumulative op-cache hits
	BDDCacheMisses    atomic.Int64 // cumulative op-cache misses
	BDDCacheEvictions atomic.Int64 // cumulative op-cache evictions
	BDDLiveNodes      atomic.Int64 // live nodes of the most recent job
	BDDPeakNodes      atomic.Int64 // max peak live nodes over all jobs

	// Explicit-engine kernel observability, aggregated across jobs.
	ExplicitPreOps     atomic.Int64 // cumulative Pre image kernels
	ExplicitPostOps    atomic.Int64 // cumulative Post image kernels
	ExplicitGroupTests atomic.Int64 // cumulative per-group membership tests

	// Synthesizer fast-fail observability: cumulative rank-∞ fast-fail
	// short-circuits across jobs (see core.Stats.RankInfinityFastFail).
	RankInfinityFastFail atomic.Int64

	// Search-space pruning observability, aggregated across prune-enabled
	// jobs.
	PruneSchedulesPruned atomic.Int64 // schedules dropped by the orbit quotient

	mu      sync.Mutex
	latency map[string]*histogram // per engine
}

// ObserveBDD folds one finished job's substrate statistics into the
// service-level counters.
func (m *Metrics) ObserveBDD(s *BDDStats) {
	if s == nil {
		return
	}
	m.BDDGCRuns.Add(int64(s.GCRuns))
	m.BDDGCReclaimed.Add(int64(s.GCReclaimed))
	m.BDDCacheHits.Add(int64(s.CacheHits))
	m.BDDCacheMisses.Add(int64(s.CacheMisses))
	m.BDDCacheEvictions.Add(int64(s.CacheEvictions))
	m.BDDLiveNodes.Store(int64(s.LiveNodes))
	for {
		old := m.BDDPeakNodes.Load()
		if int64(s.PeakLiveNodes) <= old || m.BDDPeakNodes.CompareAndSwap(old, int64(s.PeakLiveNodes)) {
			break
		}
	}
}

// ObserveExplicit folds one finished job's explicit-engine kernel counters
// into the service-level counters.
func (m *Metrics) ObserveExplicit(s *ExplicitStats) {
	if s == nil {
		return
	}
	m.ExplicitPreOps.Add(int64(s.PreOps))
	m.ExplicitPostOps.Add(int64(s.PostOps))
	m.ExplicitGroupTests.Add(int64(s.GroupTests))
}

// ObservePrune folds one finished prune-enabled job's quotient counters
// into the service-level counters.
func (m *Metrics) ObservePrune(s *PruneStats) {
	if s == nil {
		return
	}
	m.PruneSchedulesPruned.Add(int64(s.SchedulesPruned))
}

// latencyBucketsMS are the job-duration histogram bucket upper bounds in
// milliseconds. Cache hits are served in microseconds and bypass jobs
// entirely, so the buckets only need to cover real synthesis runs.
var latencyBucketsMS = []float64{1, 5, 10, 50, 100, 500, 1000, 5000, 30000}

type histogram struct {
	counts []int64 // one per bucket, plus the +Inf bucket at the end
	sum    float64 // milliseconds
	count  int64
}

func newMetrics() *Metrics {
	return &Metrics{latency: make(map[string]*histogram)}
}

// ObserveJob records one finished job's wall-clock duration under the given
// engine label.
func (m *Metrics) ObserveJob(engine string, d time.Duration) {
	ms := float64(d.Microseconds()) / 1e3
	m.mu.Lock()
	defer m.mu.Unlock()
	h, ok := m.latency[engine]
	if !ok {
		h = &histogram{counts: make([]int64, len(latencyBucketsMS)+1)}
		m.latency[engine] = h
	}
	i := sort.SearchFloat64s(latencyBucketsMS, ms)
	h.counts[i]++
	h.sum += ms
	h.count++
}

// MeanJobMS returns the mean wall-clock duration in milliseconds of every
// finished job across all engines, or 0 when none has finished yet. It
// feeds the server's Retry-After estimate on queue-full responses.
func (m *Metrics) MeanJobMS() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	var sum float64
	var n int64
	for _, h := range m.latency {
		sum += h.sum
		n += h.count
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// WritePrometheus writes all counters in the Prometheus text exposition
// format. gauges are point-in-time values supplied by the server (queue
// depth, cache size).
func (m *Metrics) WritePrometheus(w io.Writer, gauges map[string]float64) {
	counter := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	counter("stsyn_jobs_started_total", "Synthesis jobs started.", m.JobsStarted.Load())
	counter("stsyn_jobs_succeeded_total", "Synthesis jobs that produced a verified protocol.", m.JobsSucceeded.Load())
	counter("stsyn_jobs_failed_total", "Synthesis jobs that failed (bad input or heuristic failure).", m.JobsFailed.Load())
	counter("stsyn_jobs_cancelled_total", "Synthesis jobs cancelled or timed out.", m.JobsCancelled.Load())
	counter("stsyn_cache_hits_total", "Requests served from the result cache.", m.CacheHits.Load())
	counter("stsyn_cache_misses_total", "Requests that missed the result cache.", m.CacheMisses.Load())
	counter("stsyn_queue_rejected_total", "Requests rejected because the job queue was full.", m.QueueRejected.Load())
	counter("stsyn_async_jobs_submitted_total", "Async jobs accepted by POST /v1/jobs.", m.AsyncSubmitted.Load())
	counter("stsyn_async_jobs_canceled_total", "Async jobs canceled by DELETE /v1/jobs/{id}.", m.AsyncCanceled.Load())
	counter("stsyn_batch_requests_total", "Batch calls accepted by POST /v1/batch.", m.BatchRequests.Load())
	counter("stsyn_batch_items_total", "Synthesis requests carried by batch calls.", m.BatchItems.Load())
	counter("stsyn_batch_deduped_total", "Batch items deduplicated within their batch.", m.BatchDeduped.Load())
	counter("stsyn_batch_cache_hits_total", "Unique batch items served from the result cache.", m.BatchCacheHits.Load())
	counter("stsyn_admission_rejected_total", "Requests rejected by per-tenant token-bucket admission.", m.AdmissionRejected.Load())
	counter("stsyn_bdd_gc_runs_total", "BDD scratch managers dropped across symbolic jobs.", m.BDDGCRuns.Load())
	counter("stsyn_bdd_gc_reclaimed_nodes_total", "BDD nodes released by dropping scratch managers.", m.BDDGCReclaimed.Load())
	counter("stsyn_bdd_op_cache_hits_total", "BDD operation-cache hits across symbolic jobs.", m.BDDCacheHits.Load())
	counter("stsyn_bdd_op_cache_misses_total", "BDD operation-cache misses across symbolic jobs.", m.BDDCacheMisses.Load())
	counter("stsyn_bdd_op_cache_evictions_total", "BDD operation-cache evictions across symbolic jobs.", m.BDDCacheEvictions.Load())
	counter("stsyn_explicit_pre_ops_total", "Explicit-engine Pre image kernels across jobs.", m.ExplicitPreOps.Load())
	counter("stsyn_explicit_post_ops_total", "Explicit-engine Post image kernels across jobs.", m.ExplicitPostOps.Load())
	counter("stsyn_explicit_group_tests_total", "Explicit-engine per-group membership tests across jobs.", m.ExplicitGroupTests.Load())
	counter("stsyn_rank_infinity_fastfail_total", "Rank-infinity fast-fail short-circuits across synthesis jobs.", m.RankInfinityFastFail.Load())
	counter("stsyn_prune_schedules_pruned_total", "Schedules dropped by the symmetry orbit quotient.", m.PruneSchedulesPruned.Load())

	if gauges == nil {
		gauges = map[string]float64{}
	}
	gauges["stsyn_bdd_live_nodes"] = float64(m.BDDLiveNodes.Load())
	gauges["stsyn_bdd_peak_nodes"] = float64(m.BDDPeakNodes.Load())

	names := make([]string, 0, len(gauges))
	for name := range gauges {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "# TYPE %s gauge\n%s %g\n", name, name, gauges[name])
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.latency) == 0 {
		return
	}
	fmt.Fprintf(w, "# HELP stsyn_job_duration_ms Synthesis job duration in milliseconds.\n")
	fmt.Fprintf(w, "# TYPE stsyn_job_duration_ms histogram\n")
	engines := make([]string, 0, len(m.latency))
	for e := range m.latency {
		engines = append(engines, e)
	}
	sort.Strings(engines)
	for _, e := range engines {
		h := m.latency[e]
		cum := int64(0)
		for i, le := range latencyBucketsMS {
			cum += h.counts[i]
			fmt.Fprintf(w, "stsyn_job_duration_ms_bucket{engine=%q,le=%q} %d\n", e, formatBound(le), cum)
		}
		cum += h.counts[len(latencyBucketsMS)]
		fmt.Fprintf(w, "stsyn_job_duration_ms_bucket{engine=%q,le=\"+Inf\"} %d\n", e, cum)
		fmt.Fprintf(w, "stsyn_job_duration_ms_sum{engine=%q} %g\n", e, h.sum)
		fmt.Fprintf(w, "stsyn_job_duration_ms_count{engine=%q} %d\n", e, h.count)
	}
}

func formatBound(le float64) string {
	if le == math.Trunc(le) {
		return fmt.Sprintf("%d", int64(le))
	}
	return fmt.Sprintf("%g", le)
}
