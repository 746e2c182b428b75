package dist

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync/atomic"
)

// Metrics aggregates the distributed tier's observability counters: the
// worker client's request/retry activity and the coordinator's shard
// lifecycle. All fields are safe for concurrent use and monotonic except
// the in-flight gauge.
type Metrics struct {
	// Worker-client counters.
	RequestsTotal   atomic.Int64 // HTTP attempts sent to workers
	RequestRetries  atomic.Int64 // attempts beyond the first for a logical request
	WorkerCooldowns atomic.Int64 // workers placed in failure cooldown

	// Coordinator shard lifecycle.
	ShardsCompleted atomic.Int64 // shards that ran (or early-exited) to a journaled end
	ShardsCancelled atomic.Int64 // shards cancelled because a lower index already won
	ShardRequeues   atomic.Int64 // shard retries after a worker-side transport failure
	ShardsResumed   atomic.Int64 // shards skipped on startup thanks to the journal
	ShardsInFlight  atomic.Int64 // gauge: shards currently running

	// Schedule outcomes across all shards.
	SchedulesTried     atomic.Int64
	SchedulesSucceeded atomic.Int64
	ScheduleFailures   atomic.Int64 // worker said 422: heuristic failed on that schedule
	SchedulesPruned    atomic.Int64 // schedules dropped pre-shard by the orbit quotient
}

// WritePrometheus writes the counters in the Prometheus text exposition
// format. gauges are extra point-in-time values (full metric lines, labels
// included, map to their value).
func (m *Metrics) WritePrometheus(w io.Writer, gauges map[string]float64) {
	counter := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	counter("stsyn_dist_requests_total", "HTTP synthesis attempts sent to workers.", m.RequestsTotal.Load())
	counter("stsyn_dist_request_retries_total", "Retried worker attempts beyond the first.", m.RequestRetries.Load())
	counter("stsyn_dist_worker_cooldowns_total", "Workers placed in failure cooldown.", m.WorkerCooldowns.Load())
	counter("stsyn_dist_shards_completed_total", "Shards run to a journaled completion.", m.ShardsCompleted.Load())
	counter("stsyn_dist_shards_cancelled_total", "Shards cancelled after a lower schedule index won.", m.ShardsCancelled.Load())
	counter("stsyn_dist_shard_requeues_total", "Shard retries after a worker transport failure.", m.ShardRequeues.Load())
	counter("stsyn_dist_shards_resumed_total", "Shards skipped on startup via journal replay.", m.ShardsResumed.Load())
	counter("stsyn_dist_schedules_tried_total", "Schedules dispatched to workers.", m.SchedulesTried.Load())
	counter("stsyn_dist_schedules_succeeded_total", "Schedules whose synthesis succeeded.", m.SchedulesSucceeded.Load())
	counter("stsyn_dist_schedule_failures_total", "Schedules the heuristic failed on (worker 422).", m.ScheduleFailures.Load())
	counter("stsyn_dist_schedules_pruned_total", "Schedules dropped pre-shard by the symmetry orbit quotient.", m.SchedulesPruned.Load())

	fmt.Fprintf(w, "# TYPE stsyn_dist_shards_in_flight gauge\nstsyn_dist_shards_in_flight %d\n", m.ShardsInFlight.Load())
	lines := make([]string, 0, len(gauges))
	for line := range gauges {
		lines = append(lines, line)
	}
	sort.Strings(lines)
	prev := ""
	for _, line := range lines {
		name := line
		if i := strings.IndexByte(line, '{'); i >= 0 {
			name = line[:i]
		}
		if name != prev {
			fmt.Fprintf(w, "# TYPE %s gauge\n", name)
			prev = name
		}
		fmt.Fprintf(w, "%s %g\n", line, gauges[line])
	}
}
