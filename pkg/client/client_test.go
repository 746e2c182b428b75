package client

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"stsyn/pkg/stsynapi"
	"stsyn/pkg/stsynerr"
)

// fastConfig keeps retry waits microscopic so tests run in milliseconds.
func fastConfig(endpoints ...string) Config {
	return Config{
		Endpoints:      endpoints,
		AttemptTimeout: 5 * time.Second,
		BackoffBase:    time.Millisecond,
		BackoffMax:     5 * time.Millisecond,
	}
}

func mustClient(t *testing.T, cfg Config) *Client {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func okHandler(hits *atomic.Int64) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(&stsynapi.Response{Protocol: "tokenring", Verified: true})
	}
}

func TestSynthesizeRetriesAcrossEndpointsAndCoolsDown(t *testing.T) {
	var badHits, goodHits atomic.Int64
	bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		badHits.Add(1)
		w.WriteHeader(http.StatusServiceUnavailable)
		json.NewEncoder(w).Encode(stsynerr.New(stsynerr.QueueFull, "full").Envelope())
	}))
	defer bad.Close()
	good := httptest.NewServer(okHandler(&goodHits))
	defer good.Close()

	var retries, cooldowns atomic.Int64
	cfg := fastConfig(bad.URL, good.URL)
	cfg.FailureThreshold = 1
	cfg.Cooldown = time.Minute
	cfg.Observer = &Observer{
		OnRetry:    func(int, time.Duration, error) { retries.Add(1) },
		OnCooldown: func(string, int, time.Duration) { cooldowns.Add(1) },
	}
	c := mustClient(t, cfg)

	resp, err := c.Synthesize(context.Background(), &stsynapi.Request{Protocol: "tokenring"})
	if err != nil {
		t.Fatalf("Synthesize: %v", err)
	}
	if !resp.Verified {
		t.Errorf("response not verified: %+v", resp)
	}
	if badHits.Load() != 1 || goodHits.Load() != 1 {
		t.Errorf("hits = bad %d good %d, want 1 and 1", badHits.Load(), goodHits.Load())
	}
	if retries.Load() != 1 || cooldowns.Load() != 1 {
		t.Errorf("retries = %d cooldowns = %d, want 1 and 1", retries.Load(), cooldowns.Load())
	}

	// The failed endpoint is cooling: the next request goes straight to the
	// healthy one.
	if _, err := c.Synthesize(context.Background(), &stsynapi.Request{Protocol: "tokenring"}); err != nil {
		t.Fatalf("second Synthesize: %v", err)
	}
	if badHits.Load() != 1 {
		t.Errorf("cooled endpoint was hit again (bad hits = %d)", badHits.Load())
	}
}

func TestPermanentStatusIsTypedAndNotRetried(t *testing.T) {
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.WriteHeader(http.StatusUnprocessableEntity)
		json.NewEncoder(w).Encode(stsynerr.New(stsynerr.SynthesisFailed, "no convergent actions").Envelope())
	}))
	defer srv.Close()

	c := mustClient(t, fastConfig(srv.URL))
	_, err := c.Synthesize(context.Background(), &stsynapi.Request{Protocol: "tokenring"})
	if err == nil {
		t.Fatal("want error")
	}
	if hits.Load() != 1 {
		t.Errorf("permanent 422 was retried: %d hits", hits.Load())
	}
	var ce *Error
	if !errors.As(err, &ce) || ce.Status != http.StatusUnprocessableEntity || ce.Temporary() {
		t.Errorf("client error = %+v, want permanent 422", ce)
	}
	var se *stsynerr.Error
	if !errors.As(err, &se) || se.Name != stsynerr.SynthesisFailed {
		t.Errorf("typed error = %+v, want name %s", se, stsynerr.SynthesisFailed)
	}
	if !errors.Is(err, &stsynerr.Error{Name: stsynerr.SynthesisFailed}) {
		t.Errorf("errors.Is on the name = false, want true")
	}
}

func TestExhaustionKeepsLastTypedError(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusServiceUnavailable)
		json.NewEncoder(w).Encode(stsynerr.New(stsynerr.ShuttingDown, "draining").Envelope())
	}))
	defer srv.Close()

	cfg := fastConfig(srv.URL)
	cfg.MaxAttempts = 2
	c := mustClient(t, cfg)
	_, err := c.Synthesize(context.Background(), &stsynapi.Request{Protocol: "tokenring"})
	if err == nil {
		t.Fatal("want error")
	}
	if !strings.Contains(err.Error(), "after 2 attempts") {
		t.Errorf("error %q does not mention exhaustion", err)
	}
	if !IsTemporary(err) {
		t.Errorf("exhausted 503 should stay temporary")
	}
	var se *stsynerr.Error
	if !errors.As(err, &se) || se.Name != stsynerr.ShuttingDown {
		t.Errorf("typed cause lost through exhaustion wrap: %v", err)
	}
}

func TestRequestIDIsStableAcrossAttempts(t *testing.T) {
	var ids []string
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ids = append(ids, r.Header.Get(RequestIDHeader))
		if hits.Add(1) == 1 {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		json.NewEncoder(w).Encode(&stsynapi.Response{Verified: true})
	}))
	defer srv.Close()

	c := mustClient(t, fastConfig(srv.URL))
	if _, _, err := c.SynthesizeRaw(context.Background(), &stsynapi.Request{Protocol: "tokenring"}, "req-7"); err != nil {
		t.Fatal(err)
	}
	if len(ids) != 2 || ids[0] != "req-7" || ids[1] != "req-7" {
		t.Errorf("request IDs across attempts = %q, want req-7 twice", ids)
	}

	// Without a caller-supplied ID the client generates one — again shared
	// by every attempt.
	ids, hits = nil, atomic.Int64{}
	if _, err := c.Synthesize(context.Background(), &stsynapi.Request{Protocol: "tokenring"}); err != nil {
		t.Fatal(err)
	}
	if len(ids) != 2 || ids[0] == "" || ids[0] != ids[1] {
		t.Errorf("generated request IDs across attempts = %q, want one non-empty ID twice", ids)
	}
}

// ctxKey carries a caller value through the request context to the
// caller's transport.
type ctxKey struct{}

// headerTransport records, per attempt, the headers the request loop sets
// and the caller value carried in the request's context.
type headerTransport struct {
	mu   sync.Mutex
	seen []string
}

func (ht *headerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	v, _ := req.Context().Value(ctxKey{}).(string)
	ht.mu.Lock()
	ht.seen = append(ht.seen, strings.Join([]string{
		req.Header.Get(TenantHeader), req.Header.Get(RequestIDHeader), req.Header.Get("Content-Type"), v,
	}, "|"))
	ht.mu.Unlock()
	return http.DefaultTransport.RoundTrip(req)
}

// A caller's HTTPClient.Transport is the extension point for tracing and
// auth: it sees every attempt, each carrying the tenant, the one request
// ID of the call, the content type and the caller's context values.
func TestCallerTransportSeesEveryAttempt(t *testing.T) {
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) == 1 {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		json.NewEncoder(w).Encode(&stsynapi.Response{Verified: true})
	}))
	defer srv.Close()

	ht := &headerTransport{}
	cfg := fastConfig(srv.URL)
	cfg.HTTPClient = &http.Client{Transport: ht}
	cfg.Tenant = "acme"
	c := mustClient(t, cfg)
	ctx := context.WithValue(context.Background(), ctxKey{}, "span-1")
	if _, _, err := c.SynthesizeRaw(ctx, &stsynapi.Request{Protocol: "tokenring"}, "req-9"); err != nil {
		t.Fatal(err)
	}
	want := "acme|req-9|application/json|span-1"
	if len(ht.seen) != 2 || ht.seen[0] != want || ht.seen[1] != want {
		t.Errorf("transport saw %q, want %q on both attempts", ht.seen, want)
	}
}

// The retry rule lives in (*Error).Temporary alone: for every outcome the
// loop retries exactly when the final error says it is temporary.
func TestRetryFollowsTemporary(t *testing.T) {
	const transportFailure = 0
	for _, status := range []int{transportFailure, 400, 404, 422, 429, 500, 503} {
		t.Run(strconv.Itoa(status), func(t *testing.T) {
			var hits atomic.Int64
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				hits.Add(1)
				if status == transportFailure {
					conn, _, err := w.(http.Hijacker).Hijack()
					if err == nil {
						conn.Close()
					}
					return
				}
				w.WriteHeader(status)
				json.NewEncoder(w).Encode(stsynerr.New(stsynerr.Internal, "canned").Envelope())
			}))
			defer srv.Close()

			cfg := fastConfig(srv.URL)
			cfg.MaxAttempts = 2
			_, err := mustClient(t, cfg).Synthesize(context.Background(), &stsynapi.Request{Protocol: "tokenring"})
			var ce *Error
			if !errors.As(err, &ce) || ce.Status != status {
				t.Fatalf("err = %v, want a *client.Error with status %d", err, status)
			}
			retried := hits.Load() == 2
			if hits.Load() != 1 && !retried {
				t.Fatalf("%d server hits, want 1 or 2", hits.Load())
			}
			if ce.Temporary() != retried || IsTemporary(err) != retried {
				t.Errorf("Temporary() = %v, but retried = %v (%d hits)", ce.Temporary(), retried, hits.Load())
			}
		})
	}
}

// Retry-After advice is read once per response: the header first, else
// the envelope's retry_after_seconds.
func TestRetryAfterFromHeaderOrEnvelope(t *testing.T) {
	for _, tc := range []struct {
		name, header string
		envelope     int
		want         time.Duration
	}{
		{"header", "2", 0, 2 * time.Second},
		{"header wins", "3", 7, 3 * time.Second},
		{"envelope", "", 4, 4 * time.Second},
		{"garbage header", "soon", 4, 4 * time.Second},
		{"neither", "", 0, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if tc.header != "" {
					w.Header().Set("Retry-After", tc.header)
				}
				se := stsynerr.New(stsynerr.QueueFull, "full")
				se.RetryAfter = tc.envelope
				w.WriteHeader(http.StatusTooManyRequests)
				json.NewEncoder(w).Encode(se.Envelope())
			}))
			defer srv.Close()

			cfg := fastConfig(srv.URL)
			cfg.MaxAttempts = 1
			_, err := mustClient(t, cfg).Synthesize(context.Background(), &stsynapi.Request{Protocol: "tokenring"})
			var ce *Error
			if !errors.As(err, &ce) {
				t.Fatalf("err = %v, want a *client.Error", err)
			}
			if ce.RetryAfter != tc.want {
				t.Errorf("RetryAfter = %v, want %v", ce.RetryAfter, tc.want)
			}
		})
	}
}

// Retry-After stretches the backoff only up to the 5s cap.
func TestBackoffHonorsRetryAfterUpToCap(t *testing.T) {
	c := mustClient(t, fastConfig("http://a"))
	if d := c.backoff(1, &Error{}); d < 500*time.Microsecond || d > 1500*time.Microsecond {
		t.Errorf("first backoff = %v, want 1ms ±50%%", d)
	}
	if d := c.backoff(9, &Error{}); d > 7500*time.Microsecond {
		t.Errorf("ninth backoff = %v, want at most BackoffMax 5ms +50%%", d)
	}
	if d := c.backoff(1, &Error{RetryAfter: 2 * time.Second}); d != 2*time.Second {
		t.Errorf("backoff with Retry-After 2s = %v", d)
	}
	if d := c.backoff(1, &Error{RetryAfter: time.Minute}); d != retryAfterMax {
		t.Errorf("backoff with Retry-After 1m = %v, want the %v cap", d, retryAfterMax)
	}
}

func TestWaitJobPollsToTerminal(t *testing.T) {
	var polls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.Method == http.MethodPost && r.URL.Path == "/v1/jobs":
			w.WriteHeader(http.StatusAccepted)
			json.NewEncoder(w).Encode(&stsynapi.JobStatus{ID: "j1", State: stsynapi.JobQueued})
		case r.Method == http.MethodGet && r.URL.Path == "/v1/jobs/j1":
			js := &stsynapi.JobStatus{ID: "j1", State: stsynapi.JobRunning}
			if polls.Add(1) >= 3 {
				js.State = stsynapi.JobDone
				js.Response = &stsynapi.Response{Protocol: "tokenring", Verified: true}
			}
			json.NewEncoder(w).Encode(js)
		default:
			http.NotFound(w, r)
		}
	}))
	defer srv.Close()

	c := mustClient(t, fastConfig(srv.URL))
	js, err := c.SubmitJob(context.Background(), &stsynapi.Request{Protocol: "tokenring"})
	if err != nil {
		t.Fatal(err)
	}
	if js.ID != "j1" || js.State != stsynapi.JobQueued {
		t.Fatalf("submit status = %+v", js)
	}
	resp, err := c.WaitJob(context.Background(), js.ID, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Verified || polls.Load() < 3 {
		t.Errorf("resp = %+v after %d polls", resp, polls.Load())
	}
}

func TestWaitJobSurfacesTypedFailure(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		env := stsynerr.New(stsynerr.Canceled, "job cancelled").Envelope()
		json.NewEncoder(w).Encode(&stsynapi.JobStatus{ID: "j2", State: stsynapi.JobCanceled, Error: env})
	}))
	defer srv.Close()

	c := mustClient(t, fastConfig(srv.URL))
	_, err := c.WaitJob(context.Background(), "j2", time.Millisecond)
	if err == nil {
		t.Fatal("want error")
	}
	var se *stsynerr.Error
	if !errors.As(err, &se) || se.Name != stsynerr.Canceled {
		t.Errorf("typed error = %+v, want %s", se, stsynerr.Canceled)
	}
}

func TestEndpointsRotationFallsBackWhenAllCooling(t *testing.T) {
	if _, err := newEndpoints(nil, 0, 0); err == nil {
		t.Errorf("empty rotation accepted")
	}
	eps, err := newEndpoints([]string{"http://a/", "http://b"}, 1, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	i0, u0 := eps.pick(-1)
	if u0 != "http://a" {
		t.Errorf("first pick = %q, want trailing slash trimmed http://a", u0)
	}
	if cooled, _ := eps.markFailure(i0); !cooled {
		t.Errorf("threshold-1 failure did not cool")
	}
	i1, _ := eps.pick(i0)
	if i1 == i0 {
		t.Errorf("pick repeated the excluded endpoint with a healthy one available")
	}
	eps.markFailure(i1)
	// Both cooling: rotation must still yield something rather than spin.
	if _, u := eps.pick(-1); u == "" {
		t.Errorf("all-cooling fallback returned nothing")
	}
	st := eps.status()
	if len(st) != 2 || st[0].CoolingFor <= 0 || st[1].CoolingFor <= 0 {
		t.Errorf("status = %+v, want both cooling", st)
	}
	eps.markSuccess(i0)
	if st := eps.status(); st[i0].Fails != 0 || st[i0].CoolingFor != 0 {
		t.Errorf("markSuccess did not reset: %+v", st[i0])
	}
}
