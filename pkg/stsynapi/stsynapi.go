// Package stsynapi is the wire contract of the stsyn synthesis service:
// the request and response shapes of every versioned endpoint, the job
// and batch envelopes of the async API, and the correlation headers. It
// is shared by the server (internal/service re-exports these types, so
// the two can never drift) and by the published client (pkg/client),
// and imports nothing outside the standard library and the error
// contract (pkg/stsynerr).
package stsynapi

import "stsyn/pkg/stsynerr"

// RequestIDHeader is the header that carries a request's correlation ID.
// Callers may stamp one ID per logical request and reuse it across
// retries and hedges, so server logs can be joined across attempts; the
// server generates one when the header is absent and echoes it on every
// response, error envelopes included.
const RequestIDHeader = "X-Request-ID"

// TenantHeader names the tenant a request is accounted to by the
// server's per-tenant admission control. Absent means the shared
// anonymous bucket.
const TenantHeader = "X-Stsyn-Tenant"

// Request is a synthesis job: either a built-in protocol by name (with
// its parameters) or an inline .stsyn guarded-command specification.
type Request struct {
	// Protocol names a built-in (see /v1/protocols); K and Dom are its
	// parameters (defaults 4 and 3, matching the stsyn CLI).
	Protocol string `json:"protocol,omitempty"`
	K        int    `json:"k,omitempty"`
	Dom      int    `json:"dom,omitempty"`
	// Spec is an inline .stsyn specification, mutually exclusive with
	// Protocol.
	Spec string `json:"spec,omitempty"`

	// Engine selects the state-space engine: auto (default), explicit or
	// symbolic.
	Engine string `json:"engine,omitempty"`
	// Convergence is strong (default) or weak.
	Convergence string `json:"convergence,omitempty"`
	// Schedule is the recovery schedule; empty means the paper's default
	// (P1, …, Pk-1, P0).
	Schedule []int `json:"schedule,omitempty"`
	// Resolution is the cycle-resolution strategy: batch (default) or
	// incremental.
	Resolution string `json:"resolution,omitempty"`
	// Fanout tries all cyclic-rotation schedules in parallel and keeps the
	// first success; Schedule must be empty.
	Fanout bool `json:"fanout,omitempty"`
	// Prune enables symmetry-quotient schedule pruning and the
	// cross-schedule fixpoint memo: with Fanout, orbit-equivalent schedules
	// are searched once; with or without it, rank/fixpoint sub-results are
	// shared through the server's memo. The synthesized protocol is
	// byte-identical to the unpruned run. Requires batch resolution (the
	// default): incremental cycle resolution is not equivariant under the
	// symmetry group.
	Prune bool `json:"prune,omitempty"`

	// Deprecated: accepted and ignored. Each engine has one SCC
	// algorithm. The field stays for one release so requests from older
	// clients, which the server decodes strictly, are not rejected.
	SCC string `json:"scc,omitempty"`
	// Deprecated: accepted and ignored. Engines pick their own
	// parallelism. The field stays for one release, like SCC.
	Workers int `json:"workers,omitempty"`

	// TimeoutMS bounds the job (queue wait included); 0 means the server's
	// default, and values above the server's maximum are clamped.
	TimeoutMS int `json:"timeout_ms,omitempty"`
}

// Command is one rendered guarded command of the synthesized protocol.
type Command struct {
	Guard  string `json:"guard"`
	Effect string `json:"effect"`
	Groups int    `json:"groups"`
}

// ProcessResult is the synthesized actions of one process.
type ProcessResult struct {
	Name     string    `json:"name"`
	Commands []Command `json:"commands"`
}

// Timings are the synthesis time measurements in milliseconds.
type Timings struct {
	TotalMS   float64 `json:"total_ms"`
	RankingMS float64 `json:"ranking_ms"`
	SCCMS     float64 `json:"scc_ms"`
}

// Response is the result of a synthesis job — the encoding shared by the
// service, the async job API, the batch endpoint and the stsyn CLI's
// -json flag.
type Response struct {
	Protocol    string `json:"protocol"`
	Engine      string `json:"engine"`
	Convergence string `json:"convergence"`
	Schedule    []int  `json:"schedule"`

	Processes int     `json:"processes"`
	Variables int     `json:"variables"`
	States    float64 `json:"states"`

	Pass          int `json:"pass"`
	MaxRank       int `json:"max_rank"`
	AddedGroups   int `json:"added_groups"`
	RemovedGroups int `json:"removed_groups"`
	// RankInfinityFastFail counts the synthesizer's rank-∞ fast-fail
	// short-circuits (doomed-batch skips, futile-batch replays, terminal
	// aborts) during this job.
	RankInfinityFastFail int `json:"rank_infinity_fastfail"`

	ProgramSize int     `json:"program_size"`
	SCCCount    int     `json:"scc_count"`
	AvgSCCSize  float64 `json:"avg_scc_size"`
	Timings     Timings `json:"timings"`

	Actions  []ProcessResult `json:"actions"`
	Verified bool            `json:"verified"`

	// BDD is the symbolic engine's substrate statistics (nil for the
	// explicit engine, which has no shared node store).
	BDD *BDDStats `json:"bdd,omitempty"`

	// Explicit is the explicit engine's kernel configuration and activity
	// counters (nil for the symbolic engine).
	Explicit *ExplicitStats `json:"explicit,omitempty"`

	// Prune reports what symmetry pruning did for this job (nil when the
	// request did not ask for pruning).
	Prune *PruneStats `json:"prune,omitempty"`

	// Cached reports whether the response was served from the result cache;
	// ElapsedMS is the server-side job time (0 for CLI use).
	Cached    bool    `json:"cached"`
	ElapsedMS float64 `json:"elapsed_ms"`
}

// BDDStats is the JSON rendering of the symbolic engine's substrate
// statistics (core.SpaceStats): node-store occupancy, operation-cache
// behavior and garbage-collection work for one synthesis run.
type BDDStats struct {
	LiveNodes       int     `json:"live_nodes"`
	PeakLiveNodes   int     `json:"peak_live_nodes"`
	AllocatedSlots  int     `json:"allocated_slots"`
	UniqueTableLoad float64 `json:"unique_table_load"`
	CacheSize       int     `json:"cache_size"`
	CacheHits       uint64  `json:"cache_hits"`
	CacheMisses     uint64  `json:"cache_misses"`
	CacheEvictions  uint64  `json:"cache_evictions"`
	CacheHitRate    float64 `json:"cache_hit_rate"`
	GCRuns          int     `json:"gc_runs"`
	GCReclaimed     uint64  `json:"gc_reclaimed"`
}

// ExplicitStats is the JSON rendering of the explicit engine's image-kernel
// activity counters (explicit.KernelStats) for one synthesis run.
type ExplicitStats struct {
	PreOps     uint64 `json:"pre_ops"`
	PostOps    uint64 `json:"post_ops"`
	GroupTests uint64 `json:"group_tests"`
}

// PruneStats is the JSON rendering of one job's symmetry-pruning activity:
// the derived automorphism group's size, the quotient's schedule counters
// (zero for single-schedule jobs, where there is nothing to quotient), and
// this job's hits and misses against the cross-schedule fixpoint memo.
type PruneStats struct {
	GroupSize        int   `json:"group_size"`
	SchedulesEmitted int   `json:"schedules_emitted"`
	SchedulesPruned  int   `json:"schedules_pruned"`
	MemoHits         int64 `json:"memo_hits"`
	MemoMisses       int64 `json:"memo_misses"`
}

// Job states of the async API. A job is terminal exactly when its state
// is done, failed or canceled; terminal results are kept for the server's
// job TTL and then evicted (a later GET answers JobNotFound).
const (
	JobQueued   = "queued"
	JobRunning  = "running"
	JobDone     = "done"
	JobFailed   = "failed"
	JobCanceled = "canceled"
)

// JobStatus is the envelope of the async job API: what POST /v1/jobs
// returns (202, state queued) and what GET /v1/jobs/{id} polls.
type JobStatus struct {
	ID    string `json:"id"`
	State string `json:"state"`
	// ElapsedMS is the job's server-side age in milliseconds: creation to
	// now while live, creation to finish once terminal — the "partial
	// stats" a canceled job still reports.
	ElapsedMS float64 `json:"elapsed_ms"`
	// Response is the synthesis result, present exactly when State is
	// done. It is byte-identical (modulo the cached/elapsed_ms markers) to
	// what the synchronous endpoint returns for the same request, and the
	// two share one cache entry.
	Response *Response `json:"response,omitempty"`
	// Error is the typed failure, present when State is failed or
	// canceled.
	Error *stsynerr.Envelope `json:"error,omitempty"`
}

// BatchRequest is the body of POST /v1/batch: many synthesis requests
// answered in one round trip, with spec parsing and cache lookups
// amortized across them (identical requests are normalized and run once).
type BatchRequest struct {
	Requests []Request `json:"requests"`
}

// BatchResult is one request's outcome within a batch: exactly one of
// Response or Error is set.
type BatchResult struct {
	Response *Response          `json:"response,omitempty"`
	Error    *stsynerr.Envelope `json:"error,omitempty"`
}

// BatchResponse is the body answering POST /v1/batch; Results is
// positional with the request list.
type BatchResponse struct {
	Results []BatchResult `json:"results"`
	// Deduped counts requests that were recognized as duplicates of an
	// earlier request in the same batch and served from its run.
	Deduped int `json:"deduped"`
	// CacheHits counts unique requests served from the server's result
	// cache without starting a job.
	CacheHits int `json:"cache_hits"`
}
