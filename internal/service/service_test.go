package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	svc := New(cfg)
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := svc.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return svc, ts
}

func postSynthesize(t *testing.T, ts *httptest.Server, body string) (int, []byte) {
	t.Helper()
	resp, err := ts.Client().Post(ts.URL+"/v1/synthesize", "application/json",
		bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

func decodeResponse(t *testing.T, data []byte) *Response {
	t.Helper()
	var out Response
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatalf("bad response %s: %v", data, err)
	}
	return &out
}

// requireGoroutinesBack polls until the goroutine count returns to the
// baseline (catching leaked workers or stuck jobs).
func requireGoroutinesBack(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if runtime.NumGoroutine() <= base {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutine leak: %d > baseline %d\n%s",
				runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// The acceptance path: POST a token ring job, get a verified protocol; an
// identical second POST is served from the cache without starting a job.
func TestSynthesizeEndToEndAndCacheHit(t *testing.T) {
	svc, ts := newTestServer(t, Config{Workers: 2})
	body := `{"protocol":"tokenring","k":4,"dom":3}`

	status, data := postSynthesize(t, ts, body)
	if status != http.StatusOK {
		t.Fatalf("status = %d, body %s", status, data)
	}
	first := decodeResponse(t, data)
	if !first.Verified {
		t.Error("protocol not verified")
	}
	if first.Cached {
		t.Error("first response claims to be cached")
	}
	if first.Engine != "explicit" {
		t.Errorf("engine = %q, want explicit (81 states)", first.Engine)
	}
	if first.AddedGroups == 0 {
		t.Error("no recovery groups added")
	}
	if len(first.Actions) != 4 {
		t.Fatalf("actions for %d processes, want 4", len(first.Actions))
	}
	// The synthesizer re-derives Dijkstra's protocol: P1..P3 copy their
	// predecessor's value.
	if g := first.Actions[1].Commands; len(g) == 0 || !strings.Contains(g[0].Effect, "x1 := x0") {
		t.Errorf("P1 actions = %+v, want a copy of x0", g)
	}

	status, data = postSynthesize(t, ts, body)
	if status != http.StatusOK {
		t.Fatalf("second status = %d, body %s", status, data)
	}
	second := decodeResponse(t, data)
	if !second.Cached {
		t.Fatal("second identical POST was not a cache hit")
	}
	if second.Pass != first.Pass || second.ProgramSize != first.ProgramSize {
		t.Error("cached response differs from the original")
	}
	m := svc.Metrics()
	if got := m.CacheHits.Load(); got != 1 {
		t.Errorf("cache hits = %d, want 1", got)
	}
	if got := m.JobsStarted.Load(); got != 1 {
		t.Errorf("jobs started = %d, want 1 (cache hit must not start a job)", got)
	}
	if got := m.JobsSucceeded.Load(); got != 1 {
		t.Errorf("jobs succeeded = %d, want 1", got)
	}
}

// Round-trip of the shipped GCL spec through the service: parse, synthesize,
// and hit the cache on the identical second POST, with counters to match.
func TestSpecFileRoundTrip(t *testing.T) {
	src, err := os.ReadFile("../../examples/specs/tokenring.stsyn")
	if err != nil {
		t.Fatal(err)
	}
	svc, ts := newTestServer(t, Config{Workers: 2})
	req, err := json.Marshal(&Request{Spec: string(src)})
	if err != nil {
		t.Fatal(err)
	}

	status, data := postSynthesize(t, ts, string(req))
	if status != http.StatusOK {
		t.Fatalf("status = %d, body %s", status, data)
	}
	first := decodeResponse(t, data)
	if !first.Verified {
		t.Error("spec-file protocol not verified")
	}
	if first.Protocol != "TokenRing" {
		t.Errorf("protocol name = %q, want TokenRing (from the spec header)", first.Protocol)
	}

	status, data = postSynthesize(t, ts, string(req))
	if status != http.StatusOK {
		t.Fatalf("second status = %d", status)
	}
	if !decodeResponse(t, data).Cached {
		t.Fatal("identical spec POST was not a cache hit")
	}
	m := svc.Metrics()
	if m.CacheHits.Load() != 1 || m.CacheMisses.Load() != 1 {
		t.Errorf("cache hits/misses = %d/%d, want 1/1",
			m.CacheHits.Load(), m.CacheMisses.Load())
	}
	if m.JobsStarted.Load() != 1 {
		t.Errorf("jobs started = %d, want 1", m.JobsStarted.Load())
	}
}

// A job with a 1ms deadline must come back as a timeout error — and the
// worker must not leak: the goroutine count returns to baseline after
// shutdown.
func TestJobDeadlineTimesOutWithoutLeaks(t *testing.T) {
	base := runtime.NumGoroutine()
	svc := New(Config{Workers: 2})
	ts := httptest.NewServer(svc.Handler())

	// Symbolic three-coloring with 12 processes takes hundreds of
	// milliseconds — far beyond the 1ms budget.
	body := `{"protocol":"coloring","k":12,"engine":"symbolic","timeout_ms":1}`
	status, data := postSynthesize(t, ts, body)
	if status != http.StatusGatewayTimeout {
		t.Fatalf("status = %d (body %s), want 504", status, data)
	}
	if !strings.Contains(string(data), "did not finish in time") {
		t.Errorf("error body = %s", data)
	}
	if got := svc.Metrics().JobsCancelled.Load(); got != 1 {
		t.Errorf("jobs cancelled = %d, want 1", got)
	}

	ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := svc.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	requireGoroutinesBack(t, base)
}

// With one worker and no queue, a second job while the worker is busy must
// be rejected with 503 backpressure; cancelling the long job's request
// aborts it cooperatively.
func TestQueueBackpressure(t *testing.T) {
	svc := New(Config{Workers: 1, QueueDepth: -1})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := svc.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()

	// Occupy the only worker with a long-running job (symbolic matching
	// with 9 processes runs for many seconds — we cancel it below). With no
	// queue, a submission can race the worker parking in its receive, so
	// retry 503s until the job is in.
	ctx1, cancel1 := context.WithCancel(context.Background())
	defer cancel1()
	errc := make(chan error, 1)
	go func() {
		for {
			_, err := svc.Do(ctx1, &Request{Protocol: "matching", K: 9, Engine: "symbolic", TimeoutMS: 120000})
			var se *Error
			if errors.As(err, &se) && se.Status == http.StatusServiceUnavailable && ctx1.Err() == nil {
				time.Sleep(time.Millisecond)
				continue
			}
			errc <- err
			return
		}
	}()
	deadline := time.Now().Add(10 * time.Second)
	for svc.Metrics().JobsStarted.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("long job never started")
		}
		time.Sleep(time.Millisecond)
	}
	rejected0 := svc.Metrics().QueueRejected.Load()

	_, err := svc.Do(context.Background(), &Request{Protocol: "tokenring"})
	var se *Error
	if !errors.As(err, &se) || se.Status != http.StatusServiceUnavailable {
		t.Fatalf("err = %v, want 503 backpressure", err)
	}
	if got := svc.Metrics().QueueRejected.Load(); got != rejected0+1 {
		t.Errorf("queue rejected = %d, want %d", got, rejected0+1)
	}

	cancel1()
	select {
	case err := <-errc:
		if !errors.As(err, &se) || se.Status != StatusClientClosed {
			t.Errorf("long job err = %v, want client-closed", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("cancelled job did not come back")
	}
}

// Structurally malformed inputs are 400s, semantically invalid ones
// (unknown protocol, engine or option) and synthesis-level failures are
// 422s — all with a JSON error body carrying the request ID.
func TestErrorMapping(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, tc := range []struct {
		name, body string
		status     int
	}{
		{"empty", `{}`, http.StatusBadRequest},
		{"both", `{"protocol":"tokenring","spec":"x"}`, http.StatusBadRequest},
		{"unknown protocol", `{"protocol":"nope"}`, http.StatusUnprocessableEntity},
		{"unknown field", `{"protocl":"tokenring"}`, http.StatusBadRequest},
		{"bad engine", `{"protocol":"tokenring","engine":"quantum"}`, http.StatusUnprocessableEntity},
		{"bad schedule", `{"protocol":"tokenring","schedule":[0,0,1,2]}`, http.StatusUnprocessableEntity},
		{"bad spec", `{"spec":"protocol X\n"}`, http.StatusUnprocessableEntity},
		// Gouda-Acharya matching has an unresolvable structure for the
		// heuristic on 4 processes: synthesis itself fails.
		{"synthesis failure", `{"protocol":"gouda-acharya","k":4}`, http.StatusUnprocessableEntity},
	} {
		t.Run(tc.name, func(t *testing.T) {
			status, data := postSynthesize(t, ts, tc.body)
			if status != tc.status {
				t.Fatalf("status = %d (body %s), want %d", status, data, tc.status)
			}
			var e map[string]string
			if err := json.Unmarshal(data, &e); err != nil || e["error"] == "" {
				t.Errorf("error body not JSON with error field: %s", data)
			}
			if e["request_id"] == "" {
				t.Errorf("error body lacks request_id: %s", data)
			}
		})
	}
}

// GET endpoints: health, protocol list, and the metrics exposition.
func TestAuxEndpoints(t *testing.T) {
	svc, ts := newTestServer(t, Config{Workers: 2})
	postSynthesize(t, ts, `{"protocol":"tokenring"}`)
	postSynthesize(t, ts, `{"protocol":"tokenring"}`) // cache hit

	get := func(path string) (int, string) {
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(data)
	}

	if status, body := get("/healthz"); status != 200 || !strings.Contains(body, "ok") {
		t.Errorf("healthz = %d %s", status, body)
	}
	if status, body := get("/v1/protocols"); status != 200 || !strings.Contains(body, "tokenring") {
		t.Errorf("protocols = %d %s", status, body)
	}
	status, body := get("/metrics")
	if status != 200 {
		t.Fatalf("metrics status = %d", status)
	}
	for _, w := range []string{
		"stsyn_jobs_started_total 1",
		"stsyn_jobs_succeeded_total 1",
		"stsyn_cache_hits_total 1",
		"stsyn_cache_misses_total 1",
		"stsyn_cache_entries 1",
		"stsyn_queue_depth 0",
		`stsyn_job_duration_ms_bucket{engine="explicit",le="+Inf"} 1`,
	} {
		if !strings.Contains(body, w) {
			t.Errorf("metrics output lacks %q:\n%s", w, body)
		}
	}
	if got := svc.Metrics().JobsStarted.Load(); got != 1 {
		t.Errorf("jobs started = %d, want 1", got)
	}
}

// A symbolic-engine job carries substrate statistics in its JSON response
// and feeds the bdd gauges and counters on /metrics; an explicit-engine job
// carries none.
func TestBDDStatsExposed(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})

	status, data := postSynthesize(t, ts, `{"protocol":"tokenring","engine":"symbolic"}`)
	if status != 200 {
		t.Fatalf("symbolic job status = %d (body %s)", status, data)
	}
	resp := decodeResponse(t, data)
	if resp.BDD == nil {
		t.Fatal("symbolic response has no bdd stats")
	}
	if resp.BDD.LiveNodes <= 0 || resp.BDD.PeakLiveNodes < resp.BDD.LiveNodes {
		t.Errorf("implausible node counts: live=%d peak=%d", resp.BDD.LiveNodes, resp.BDD.PeakLiveNodes)
	}
	if resp.BDD.CacheHits == 0 || resp.BDD.CacheMisses == 0 {
		t.Errorf("op-cache counters empty: %+v", resp.BDD)
	}

	status, data = postSynthesize(t, ts, `{"protocol":"tokenring","engine":"explicit"}`)
	if status != 200 {
		t.Fatalf("explicit job status = %d", status)
	}
	if resp := decodeResponse(t, data); resp.BDD != nil {
		t.Errorf("explicit response carries bdd stats: %+v", resp.BDD)
	}

	mresp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	raw, _ := io.ReadAll(mresp.Body)
	body := string(raw)
	for _, w := range []string{
		"stsyn_bdd_gc_runs_total",
		"stsyn_bdd_gc_reclaimed_nodes_total",
		"stsyn_bdd_op_cache_hits_total",
		"stsyn_bdd_op_cache_misses_total",
		"stsyn_bdd_op_cache_evictions_total",
		"stsyn_bdd_live_nodes",
		"stsyn_bdd_peak_nodes",
	} {
		if !strings.Contains(body, w) {
			t.Errorf("metrics output lacks %q", w)
		}
	}
	if strings.Contains(body, "stsyn_bdd_op_cache_hits_total 0\n") {
		t.Error("bdd op-cache hit counter still zero after a symbolic job")
	}
	if strings.Contains(body, "stsyn_bdd_peak_nodes 0\n") {
		t.Error("bdd peak-nodes gauge still zero after a symbolic job")
	}
}

// After Shutdown the server refuses new jobs and reports unhealthy.
func TestShutdownRefusesNewJobs(t *testing.T) {
	svc := New(Config{Workers: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := svc.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	_, err := svc.Do(context.Background(), &Request{Protocol: "tokenring"})
	var se *Error
	if !errors.As(err, &se) || se.Status != http.StatusServiceUnavailable {
		t.Fatalf("err after shutdown = %v, want 503", err)
	}
	// Idempotent.
	if err := svc.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
}

// An explicit-engine job must expose the kernel stats in the response and
// fold them into the service counters.
func TestExplicitKernelOptionsEndToEnd(t *testing.T) {
	svc, ts := newTestServer(t, Config{Workers: 1})

	status, data := postSynthesize(t, ts, `{"protocol":"tokenring","k":4,"dom":3}`)
	if status != http.StatusOK {
		t.Fatalf("status = %d, body %s", status, data)
	}
	resp := decodeResponse(t, data)
	if resp.Explicit == nil {
		t.Fatal("explicit stats missing from the response")
	}
	if resp.Explicit.PreOps == 0 && resp.Explicit.PostOps == 0 && resp.Explicit.GroupTests == 0 {
		t.Error("kernel counters all zero after a synthesis run")
	}

	if got := svc.Metrics().ExplicitGroupTests.Load(); got == 0 {
		t.Error("service-level explicit kernel counters not aggregated")
	}
	var buf bytes.Buffer
	svc.Metrics().WritePrometheus(&buf, nil)
	if !strings.Contains(buf.String(), "stsyn_explicit_pre_ops_total") {
		t.Error("explicit kernel counters missing from /metrics exposition")
	}
}

// The retired scc and workers fields are accepted and ignored for one
// release: a request carrying them and the same request without them both
// succeed with byte-identical actions, and the second is served from the
// cache entry the first filled.
func TestDeprecatedOptionsAcceptedAndIgnored(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})

	status, data := postSynthesize(t, ts, `{"protocol":"tokenring","k":4,"dom":3,"scc":"fb","workers":3}`)
	if status != http.StatusOK {
		t.Fatalf("with retired fields: status = %d, body %s", status, data)
	}
	with := decodeResponse(t, data)

	status, data = postSynthesize(t, ts, `{"protocol":"tokenring","k":4,"dom":3}`)
	if status != http.StatusOK {
		t.Fatalf("without retired fields: status = %d, body %s", status, data)
	}
	without := decodeResponse(t, data)
	if !without.Cached {
		t.Error("request without scc/workers missed the cache entry of the one with them")
	}
	a, err := json.Marshal(with.Actions)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(without.Actions)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Errorf("actions differ:\n%s\n%s", a, b)
	}
}

// Prune end-to-end: a pruned fanout job must synthesize the identical
// protocol while reporting its quotient and memo activity, miss the
// unpruned job's cache entry (prune is part of the key), fold its stats
// into the service metrics, and reject incremental resolution.
func TestPruneFanoutEndToEnd(t *testing.T) {
	svc, ts := newTestServer(t, Config{Workers: 2})

	status, data := postSynthesize(t, ts, `{"protocol":"coloring","k":4,"fanout":true}`)
	if status != http.StatusOK {
		t.Fatalf("unpruned status = %d, body %s", status, data)
	}
	plain := decodeResponse(t, data)
	if plain.Prune != nil {
		t.Error("unpruned response carries a prune block")
	}

	status, data = postSynthesize(t, ts, `{"protocol":"coloring","k":4,"fanout":true,"prune":true}`)
	if status != http.StatusOK {
		t.Fatalf("pruned status = %d, body %s", status, data)
	}
	pruned := decodeResponse(t, data)
	if pruned.Cached {
		t.Fatal("pruned job hit the unpruned cache entry: prune missing from the key")
	}
	if pruned.Prune == nil {
		t.Fatal("prune stats missing from the response")
	}
	// The 4-coloring ring is fully rotation-symmetric: the four rotation
	// schedules collapse to one representative.
	if p := pruned.Prune; p.GroupSize != 4 || p.SchedulesEmitted != 1 || p.SchedulesPruned != 3 {
		t.Errorf("prune stats = %+v, want group=4 emitted=1 pruned=3", p)
	}
	if pruned.Prune.MemoMisses == 0 {
		t.Error("cold memo reported no misses")
	}
	if !reflect.DeepEqual(plain.Actions, pruned.Actions) {
		t.Error("pruned synthesis produced a different protocol")
	}
	if plain.Pass != pruned.Pass || plain.ProgramSize != pruned.ProgramSize {
		t.Error("pruned synthesis stats diverged from the unpruned run")
	}

	m := svc.Metrics()
	if got := m.PruneSchedulesPruned.Load(); got != 3 {
		t.Errorf("service prune counter = %d, want 3", got)
	}
	if m.PruneMemoMisses.Load() == 0 {
		t.Error("service memo-miss counter not aggregated")
	}
	if st := svc.MemoStats(); st.Entries == 0 {
		t.Error("server-wide memo retained no entries after a pruned job")
	}
	var buf bytes.Buffer
	m.WritePrometheus(&buf, nil)
	if !strings.Contains(buf.String(), "stsyn_prune_schedules_pruned_total") {
		t.Error("prune counters missing from /metrics exposition")
	}

	status, data = postSynthesize(t, ts, `{"protocol":"coloring","k":4,"prune":true,"resolution":"incremental"}`)
	if status != http.StatusUnprocessableEntity {
		t.Errorf("prune+incremental status = %d, want 422 (body %s)", status, data)
	}
}

// Prune + memo on the symbolic engine, end to end. The symbolic engine
// exports its sets like the explicit one, so a pruned symbolic fan-out
// exercises the full cross-schedule memo path: rank snapshots are
// serialized BDDs, replayed across the quotient stream's attempts. The synthesized protocol must be
// identical to both the unpruned symbolic run and the pruned explicit run,
// and the response must carry the symbolic worker count.
func TestSymbolicPruneMemoEndToEnd(t *testing.T) {
	svc, ts := newTestServer(t, Config{Workers: 2})

	status, data := postSynthesize(t, ts, `{"protocol":"coloring","k":4,"fanout":true,"engine":"symbolic"}`)
	if status != http.StatusOK {
		t.Fatalf("unpruned symbolic status = %d, body %s", status, data)
	}
	plain := decodeResponse(t, data)
	if plain.Prune != nil {
		t.Error("unpruned response carries a prune block")
	}

	status, data = postSynthesize(t, ts,
		`{"protocol":"coloring","k":4,"fanout":true,"engine":"symbolic","prune":true}`)
	if status != http.StatusOK {
		t.Fatalf("pruned symbolic status = %d, body %s", status, data)
	}
	pruned := decodeResponse(t, data)
	if pruned.Cached {
		t.Fatal("pruned job hit the unpruned cache entry: prune missing from the key")
	}
	if pruned.Prune == nil {
		t.Fatal("prune stats missing from the symbolic response")
	}
	if p := pruned.Prune; p.GroupSize != 4 || p.SchedulesEmitted != 1 || p.SchedulesPruned != 3 {
		t.Errorf("prune stats = %+v, want group=4 emitted=1 pruned=3", p)
	}
	if pruned.Prune.MemoMisses == 0 {
		t.Error("cold memo reported no misses on the symbolic engine")
	}
	if pruned.BDD == nil {
		t.Fatal("symbolic response has no bdd stats")
	}
	if !reflect.DeepEqual(plain.Actions, pruned.Actions) {
		t.Error("pruned symbolic synthesis produced a different protocol")
	}
	if plain.Pass != pruned.Pass || plain.ProgramSize != pruned.ProgramSize {
		t.Error("pruned symbolic stats diverged from the unpruned run")
	}

	// Cross-engine: the pruned explicit run must agree action for action.
	status, data = postSynthesize(t, ts, `{"protocol":"coloring","k":4,"fanout":true,"prune":true}`)
	if status != http.StatusOK {
		t.Fatalf("pruned explicit status = %d, body %s", status, data)
	}
	explicitPruned := decodeResponse(t, data)
	if !reflect.DeepEqual(explicitPruned.Actions, pruned.Actions) {
		t.Error("symbolic and explicit pruned runs synthesized different protocols")
	}

	if svc.Metrics().PruneMemoMisses.Load() == 0 {
		t.Error("service memo-miss counter not aggregated from the symbolic job")
	}
	if st := svc.MemoStats(); st.Entries == 0 {
		t.Error("server-wide memo retained no entries after a pruned symbolic job")
	}

	status, data = postSynthesize(t, ts,
		`{"protocol":"coloring","k":4,"engine":"symbolic","prune":true,"resolution":"incremental"}`)
	if status != http.StatusUnprocessableEntity {
		t.Errorf("symbolic prune+incremental status = %d, want 422 (body %s)", status, data)
	}
}
