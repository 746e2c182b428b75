package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"stsyn/internal/core"
	"stsyn/internal/explicit"
	"stsyn/internal/service"
)

// newWorker spins up one real stsyn-serve worker over httptest, optionally
// wrapped by mw, and ties its shutdown to the test.
func newWorker(t *testing.T, mw func(http.Handler) http.Handler) *httptest.Server {
	t.Helper()
	svc := service.New(service.Config{Workers: 2})
	h := svc.Handler()
	if mw != nil {
		h = mw(h)
	}
	ts := httptest.NewServer(h)
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := svc.Shutdown(ctx); err != nil {
			t.Errorf("worker shutdown: %v", err)
		}
	})
	return ts
}

func newTestCoordinator(t *testing.T, cfg Config, ccfg ClientConfig) *Coordinator {
	t.Helper()
	if ccfg.BackoffBase == 0 {
		ccfg.BackoffBase = time.Millisecond
	}
	if ccfg.BackoffMax == 0 {
		ccfg.BackoffMax = 10 * time.Millisecond
	}
	client, err := NewClient(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Client = client
	cfg.Logf = t.Logf
	coord, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return coord
}

// reference runs the same schedule search single-node through
// core.TrySchedules and renders the winner exactly the way a worker would,
// so the distributed result can be compared byte for byte.
func reference(t *testing.T, req service.Request, schedules [][]int) (winSchedule []int, actionsJSON []byte) {
	t.Helper()
	sp, err := service.BuildSpec(&req)
	if err != nil {
		t.Fatal(err)
	}
	factory := func() (core.Engine, error) { return explicit.New(sp, 0) }
	best, _, err := core.TrySchedules(factory, core.Options{}, schedules, 4)
	if err != nil {
		t.Fatalf("single-node reference search failed: %v", err)
	}
	e, err := factory()
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.AddConvergence(e, core.Options{Schedule: best.Schedule})
	if err != nil {
		t.Fatal(err)
	}
	rr := req
	rr.Schedule = best.Schedule
	norm, err := service.Normalize(&rr, sp)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(service.EncodeResult(e, res, norm, true).Actions)
	if err != nil {
		t.Fatal(err)
	}
	return best.Schedule, data
}

func winnerActions(t *testing.T, res *JobResult) []byte {
	t.Helper()
	data, err := json.Marshal(res.Winner.Actions)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// The acceptance criterion: a coordinator over two real workers picks the
// same winning schedule and byte-identical protocol as single-node
// TrySchedules, on all four case studies. tworing uses a two-schedule list
// whose first schedule genuinely fails synthesis, so the win must come
// from global index 1 after index 0's failure is proven.
func TestCoordinatorDifferential(t *testing.T) {
	w1 := newWorker(t, nil)
	w2 := newWorker(t, nil)
	workers := []string{w1.URL, w2.URL}

	rot8 := core.Rotations(8) // tworing k=4 has 2k processes
	cases := []struct {
		name   string
		req    service.Request
		source ScheduleSource
		scheds [][]int
	}{
		{"tokenring", service.Request{Protocol: "tokenring", K: 4, Dom: 3, Engine: "explicit"},
			ScheduleSource{Kind: "rotations"}, core.Rotations(4)},
		{"matching", service.Request{Protocol: "matching", K: 5, Engine: "explicit"},
			ScheduleSource{Kind: "rotations"}, core.Rotations(5)},
		{"coloring", service.Request{Protocol: "coloring", K: 5, Engine: "explicit"},
			ScheduleSource{Kind: "rotations"}, core.Rotations(5)},
		{"tworing", service.Request{Protocol: "tworing", K: 4, Dom: 3, Engine: "explicit", TimeoutMS: 60000},
			ScheduleSource{Kind: "list", List: [][]int{rot8[2], rot8[0]}},
			[][]int{rot8[2], rot8[0]}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.name == "tworing" && raceEnabled {
				t.Skip("TR² synthesis takes minutes under the race detector; covered by the un-instrumented suite")
			}
			wantSched, wantActions := reference(t, tc.req, tc.scheds)
			coord := newTestCoordinator(t,
				Config{ShardSize: 1, Concurrency: 2},
				ClientConfig{Workers: workers})
			res, err := coord.Run(context.Background(), Job{Request: tc.req, Source: tc.source})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(res.WinSchedule, wantSched) {
				t.Fatalf("coordinator winner %v, single-node %v", res.WinSchedule, wantSched)
			}
			if !reflect.DeepEqual(res.Winner.Schedule, wantSched) {
				t.Errorf("winner response schedule %v, want %v", res.Winner.Schedule, wantSched)
			}
			if got := winnerActions(t, res); !bytes.Equal(got, wantActions) {
				t.Errorf("protocols differ:\ncoordinator: %s\nsingle-node: %s", got, wantActions)
			}
			if !res.Winner.Verified {
				t.Error("winner not verified")
			}
		})
	}
}

// The tworing list case again, but checking the index bookkeeping: index 0
// fails, index 1 wins, both shards complete.
func TestCoordinatorMixedOutcomeIndices(t *testing.T) {
	if raceEnabled {
		t.Skip("TR² synthesis takes minutes under the race detector; covered by the un-instrumented suite")
	}
	w1 := newWorker(t, nil)
	rot8 := core.Rotations(8)
	req := service.Request{Protocol: "tworing", K: 4, Dom: 3, Engine: "explicit", TimeoutMS: 60000}
	coord := newTestCoordinator(t,
		Config{ShardSize: 1, Concurrency: 2},
		ClientConfig{Workers: []string{w1.URL}})
	res, err := coord.Run(context.Background(), Job{
		Request: req,
		Source:  ScheduleSource{Kind: "list", List: [][]int{rot8[2], rot8[0]}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.WinIndex != 1 {
		t.Errorf("win index = %d, want 1 (index 0 fails synthesis)", res.WinIndex)
	}
	if res.Stats.ShardsCompleted != 2 {
		t.Errorf("shards completed = %d, want 2 (the failing shard must be proven)", res.Stats.ShardsCompleted)
	}
	if coord.Metrics().ScheduleFailures.Load() == 0 {
		t.Error("no schedule failure recorded for the failing rotation")
	}
}

// abortFirst returns a middleware that hard-aborts every synthesize
// request — the worker is dead from the coordinator's point of view.
func deadWorkerMW(hits *int64, mu *sync.Mutex) func(http.Handler) http.Handler {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/synthesize" {
				mu.Lock()
				*hits++
				mu.Unlock()
				panic(http.ErrAbortHandler)
			}
			next.ServeHTTP(w, r)
		})
	}
}

// Killing a worker mid-shard: with client-side retries disabled
// (MaxAttempts 1) the transport failure surfaces to the coordinator, which
// requeues the shard; the dead worker cools down and the job finishes on
// the survivor with the same byte-identical protocol as single-node
// TrySchedules.
func TestCoordinatorRequeuesOnWorkerDeath(t *testing.T) {
	var deadHits int64
	var mu sync.Mutex
	dead := newWorker(t, deadWorkerMW(&deadHits, &mu))
	alive := newWorker(t, nil)

	req := service.Request{Protocol: "tokenring", K: 4, Dom: 3, Engine: "explicit"}
	wantSched, wantActions := reference(t, req, core.Rotations(4))

	// One shard, one request in flight: the round-robin's first pick is the
	// dead worker, and with client-side retries disabled its death surfaces
	// to the coordinator mid-shard, forcing the requeue path.
	coord := newTestCoordinator(t,
		Config{ShardSize: 4, Concurrency: 1, ShardRetries: 3},
		ClientConfig{
			Workers:          []string{dead.URL, alive.URL},
			MaxAttempts:      1, // no client-side retry: force the coordinator requeue path
			FailureThreshold: 1,
			Cooldown:         time.Hour,
		})
	res, err := coord.Run(context.Background(), Job{Request: req, Source: ScheduleSource{Kind: "rotations"}})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.WinSchedule, wantSched) {
		t.Fatalf("winner %v, want %v", res.WinSchedule, wantSched)
	}
	if got := winnerActions(t, res); !bytes.Equal(got, wantActions) {
		t.Errorf("protocol differs from single-node reference")
	}
	mu.Lock()
	hits := deadHits
	mu.Unlock()
	if hits == 0 {
		t.Fatal("dead worker was never tried: requeue path not exercised")
	}
	if res.Stats.ShardRequeues == 0 {
		t.Error("no shard requeue recorded")
	}
	if coord.Metrics().WorkerCooldowns.Load() == 0 {
		t.Error("dead worker never cooled down")
	}
}

// recordingMW counts synthesize requests and records each requested
// schedule.
func recordingMW(mu *sync.Mutex, schedules *[][]int) func(http.Handler) http.Handler {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/synthesize" {
				body, _ := io.ReadAll(r.Body)
				r.Body.Close()
				var req service.Request
				if json.Unmarshal(body, &req) == nil {
					mu.Lock()
					*schedules = append(*schedules, req.Schedule)
					mu.Unlock()
				}
				r.Body = io.NopCloser(bytes.NewReader(body))
			}
			next.ServeHTTP(w, r)
		})
	}
}

// A restarted coordinator resumes from its journal: shards recorded as
// complete are never re-dispatched, and once the winner itself is in the
// journal a further restart needs zero worker requests and returns the
// byte-identical recorded response.
func TestCoordinatorResumesFromJournal(t *testing.T) {
	var mu sync.Mutex
	var requested [][]int
	w1 := newWorker(t, recordingMW(&mu, &requested))

	req := service.Request{Protocol: "tokenring", K: 4, Dom: 3, Engine: "explicit"}
	job := Job{Request: req, Source: ScheduleSource{Kind: "rotations"}}
	key := JobKey(&job)
	path := filepath.Join(t.TempDir(), "job.wal")

	// Fabricate the journal of a coordinator that died after completing
	// shard 0 (rotations 0 and 1) without a win.
	jn, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := jn.Append(&Record{Type: "job", JobKey: key, Source: job.Source.String(), ShardSize: 2}); err != nil {
		t.Fatal(err)
	}
	if err := jn.Append(&Record{Type: "shard", JobKey: key, Shard: 0, Start: 0, Tried: 2, WinIndex: -1}); err != nil {
		t.Fatal(err)
	}
	jn.Close()

	coord := newTestCoordinator(t,
		Config{ShardSize: 2, Concurrency: 2, JournalPath: path},
		ClientConfig{Workers: []string{w1.URL}})
	res, err := coord.Run(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	// Shard 0 is trusted from the journal: the winner must come from shard
	// 1, i.e. rotation 2 at global index 2.
	if res.WinIndex != 2 {
		t.Fatalf("win index = %d, want 2 (shard 0 journaled as winless)", res.WinIndex)
	}
	if res.Stats.ShardsResumed != 1 {
		t.Errorf("shards resumed = %d, want 1", res.Stats.ShardsResumed)
	}
	mu.Lock()
	reqs := append([][]int(nil), requested...)
	mu.Unlock()
	if len(reqs) != 1 {
		t.Fatalf("worker saw %d requests %v, want 1 (only rotation 2)", len(reqs), reqs)
	}
	rot := core.Rotations(4)
	if !reflect.DeepEqual(reqs[0], rot[2]) {
		t.Errorf("worker asked for %v, want rotation 2 %v", reqs[0], rot[2])
	}

	// Restart again: the journal now proves the winner — zero requests,
	// byte-identical recorded response.
	coord2 := newTestCoordinator(t,
		Config{ShardSize: 2, Concurrency: 2, JournalPath: path},
		ClientConfig{Workers: []string{w1.URL}})
	res2, err := coord2.Run(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Stats.Requests != 0 {
		t.Errorf("resumed run issued %d requests, want 0", res2.Stats.Requests)
	}
	if res2.WinIndex != res.WinIndex || !reflect.DeepEqual(res2.WinSchedule, res.WinSchedule) {
		t.Errorf("resumed winner (%d, %v) != original (%d, %v)",
			res2.WinIndex, res2.WinSchedule, res.WinIndex, res.WinSchedule)
	}
	if !bytes.Equal(res2.WinnerRaw, res.WinnerRaw) {
		t.Error("resumed winner response not byte-identical to the recorded one")
	}
	mu.Lock()
	after := len(requested)
	mu.Unlock()
	if after != 1 {
		t.Errorf("worker saw %d requests after resume, want still 1", after)
	}
}

// A coordinator whose every schedule fails reports ErrNoWinner.
func TestCoordinatorAllSchedulesFail(t *testing.T) {
	w1 := newWorker(t, nil)
	coord := newTestCoordinator(t,
		Config{ShardSize: 2, Concurrency: 2},
		ClientConfig{Workers: []string{w1.URL}})
	_, err := coord.Run(context.Background(), Job{
		Request: service.Request{Protocol: "gouda-acharya", K: 4, Engine: "explicit"},
		Source:  ScheduleSource{Kind: "rotations"},
	})
	if !errors.Is(err, ErrNoWinner) {
		t.Fatalf("err = %v, want ErrNoWinner", err)
	}
}

// Options every worker would reject fail the run up front, with the
// service's own message: they are not schedule failures, so no worker is
// asked and the search does not end in ErrNoWinner.
func TestCoordinatorRejectsBadOptions(t *testing.T) {
	w1 := newWorker(t, nil)
	base := service.Request{Protocol: "tokenring", K: 4, Dom: 3}
	cases := []struct {
		name string
		edit func(*service.Request)
	}{
		{"unknown engine", func(r *service.Request) { r.Engine = "quantum" }},
		{"unknown convergence", func(r *service.Request) { r.Convergence = "eventual" }},
		{"unknown resolution", func(r *service.Request) { r.Resolution = "lazy" }},
		{"prune with incremental resolution", func(r *service.Request) { r.Prune, r.Resolution = true, "incremental" }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			coord := newTestCoordinator(t, Config{ShardSize: 2}, ClientConfig{Workers: []string{w1.URL}})
			req := base
			tc.edit(&req)
			sp, err := service.BuildSpec(&req)
			if err != nil {
				t.Fatal(err)
			}
			_, want := service.Normalize(&req, sp)
			if want == nil {
				t.Fatalf("service accepts %+v", req)
			}
			_, err = coord.Run(context.Background(), Job{Request: req, Source: ScheduleSource{Kind: "all"}})
			switch {
			case err == nil:
				t.Fatal("bad options accepted")
			case errors.Is(err, ErrNoWinner):
				t.Fatalf("bad options became schedule failures: %v", err)
			case !strings.Contains(err.Error(), "dist: ") || !strings.Contains(err.Error(), want.Error()):
				t.Errorf("err = %q, want the dist-prefixed service message %q", err, want)
			}
			m := coord.Metrics()
			if tried, sent := m.SchedulesTried.Load(), m.RequestsTotal.Load(); tried != 0 || sent != 0 {
				t.Errorf("schedules tried = %d, worker requests = %d, want 0 and 0", tried, sent)
			}
		})
	}

	// A list schedule that is not a permutation is no schedule to try
	// either: the source rejects it with the core's schedule rule.
	coord := newTestCoordinator(t, Config{ShardSize: 2}, ClientConfig{Workers: []string{w1.URL}})
	_, err := coord.Run(context.Background(), Job{Request: base, Source: ScheduleSource{Kind: "list", List: [][]int{{0, 0, 1, 2}}}})
	if err == nil || errors.Is(err, ErrNoWinner) || !strings.Contains(err.Error(), "not a permutation") {
		t.Errorf("non-permutation list schedule: err = %v, want a permutation error", err)
	}
	if sent := coord.Metrics().RequestsTotal.Load(); sent != 0 {
		t.Errorf("non-permutation list schedule sent %d worker requests, want 0", sent)
	}
}

// The coordinator's own observability endpoints.
func TestCoordinatorHandler(t *testing.T) {
	w1 := newWorker(t, nil)
	coord := newTestCoordinator(t, Config{}, ClientConfig{Workers: []string{w1.URL}})
	ts := httptest.NewServer(coord.Handler())
	t.Cleanup(ts.Close)

	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz = %d", resp.StatusCode)
	}

	resp, err = ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"stsyn_dist_requests_total",
		"stsyn_dist_shards_completed_total",
		"stsyn_dist_shards_in_flight",
		"stsyn_dist_worker_up{worker=",
	} {
		if !bytes.Contains(body, []byte(want)) {
			t.Errorf("metrics lacks %q:\n%s", want, body)
		}
	}
}

// TestClusterSmoke is the CI cluster smoke test: two in-process workers,
// one dead from the start (every synthesize aborted mid-response), a
// journaled coordinator job that must complete on the survivor, and a
// replay that must be idempotent — zero further worker requests, identical
// winner.
func TestClusterSmoke(t *testing.T) {
	var deadHits int64
	var mu sync.Mutex
	dead := newWorker(t, deadWorkerMW(&deadHits, &mu))
	alive := newWorker(t, nil)

	path := filepath.Join(t.TempDir(), "smoke.wal")
	job := Job{
		Request: service.Request{Protocol: "tokenring", K: 4, Dom: 3, Engine: "explicit"},
		Source:  ScheduleSource{Kind: "rotations"},
	}
	run := func() *JobResult {
		coord := newTestCoordinator(t,
			Config{ShardSize: 1, Concurrency: 2, JournalPath: path},
			ClientConfig{Workers: []string{dead.URL, alive.URL}, FailureThreshold: 1, Cooldown: time.Hour})
		res, err := coord.Run(context.Background(), job)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	res := run()
	if res.WinIndex != 0 || !reflect.DeepEqual(res.WinSchedule, core.IdentitySchedule(4)) {
		t.Fatalf("winner = (%d, %v), want the identity at index 0", res.WinIndex, res.WinSchedule)
	}
	if !res.Winner.Verified {
		t.Fatal("winner not verified")
	}

	// Journal replay must validate cleanly and prove the winner.
	rep, err := ReplayJournal(path, JobKey(&job))
	if err != nil {
		t.Fatalf("journal replay: %v", err)
	}
	if rep.Job == nil {
		t.Fatal("journal has no job header")
	}

	res2 := run()
	if res2.Stats.Requests != 0 {
		t.Errorf("second run issued %d worker requests, want 0", res2.Stats.Requests)
	}
	if !bytes.Equal(res2.WinnerRaw, res.WinnerRaw) {
		t.Error("second run's winner not byte-identical")
	}
}

// Prune through the distributed tier: the coordinator quotients the
// rotation stream before sharding, so only one representative of the
// 5-coloring's single rotation orbit becomes a worker request, yet the
// winner and protocol are identical to the unpruned single-node search.
func TestCoordinatorPruneDifferential(t *testing.T) {
	w1 := newWorker(t, nil)
	w2 := newWorker(t, nil)

	req := service.Request{Protocol: "coloring", K: 5, Engine: "explicit", Prune: true}
	wantSched, wantActions := reference(t, req, core.Rotations(5))

	coord := newTestCoordinator(t,
		Config{ShardSize: 1, Concurrency: 2},
		ClientConfig{Workers: []string{w1.URL, w2.URL}})
	res, err := coord.Run(context.Background(), Job{Request: req, Source: ScheduleSource{Kind: "rotations"}})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.WinSchedule, wantSched) {
		t.Fatalf("pruned coordinator winner %v, single-node %v", res.WinSchedule, wantSched)
	}
	if got := winnerActions(t, res); !bytes.Equal(got, wantActions) {
		t.Errorf("protocols differ:\npruned coordinator: %s\nsingle-node: %s", got, wantActions)
	}
	if !res.Winner.Verified {
		t.Error("winner not verified")
	}
	if res.Winner.Prune == nil || res.Winner.Prune.GroupSize != 5 {
		t.Errorf("winner prune stats = %+v, want group size 5", res.Winner.Prune)
	}
	// The five rotations are one orbit: one dispatched, four pruned.
	st := res.Stats
	if st.TotalSchedules != 5 || st.SchedulesTried != 1 || st.SchedulesPruned != 4 {
		t.Errorf("stats = %+v, want total=5 tried=1 pruned=4", st)
	}

	// The equivariance argument needs batch resolution; the coordinator
	// rejects the combination before contacting any worker.
	bad := req
	bad.Resolution = "incremental"
	if _, err := coord.Run(context.Background(), Job{Request: bad, Source: ScheduleSource{Kind: "rotations"}}); err == nil {
		t.Error("prune with incremental resolution was not rejected")
	}
}
