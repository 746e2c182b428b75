package dist

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"stsyn/internal/service"
	"stsyn/pkg/client"
)

const cannedResponse = `{"protocol":"Canned","engine":"explicit","schedule":[0,1],"verified":true}`

func cannedWorker(t *testing.T, h http.HandlerFunc) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	return ts
}

func fastClient(t *testing.T, cfg ClientConfig) *Client {
	t.Helper()
	if cfg.BackoffBase == 0 {
		cfg.BackoffBase = time.Millisecond
	}
	if cfg.BackoffMax == 0 {
		cfg.BackoffMax = 5 * time.Millisecond
	}
	c, err := NewClient(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// A failing worker is retried on the next worker in rotation, and after
// enough consecutive failures it is cooled down and skipped.
func TestClientRotatesOnFailure(t *testing.T) {
	var badHits, goodHits atomic.Int64
	bad := cannedWorker(t, func(w http.ResponseWriter, r *http.Request) {
		badHits.Add(1)
		http.Error(w, `{"error":"boom"}`, http.StatusInternalServerError)
	})
	good := cannedWorker(t, func(w http.ResponseWriter, r *http.Request) {
		goodHits.Add(1)
		w.Write([]byte(cannedResponse)) //nolint:errcheck
	})
	c := fastClient(t, ClientConfig{
		Workers:          []string{bad.URL, good.URL},
		FailureThreshold: 1,
		Cooldown:         time.Hour,
	})

	resp, raw, err := c.Synthesize(context.Background(), &service.Request{Protocol: "tokenring"}, "req-1")
	if err != nil {
		t.Fatal(err)
	}
	if resp.Protocol != "Canned" || len(raw) == 0 {
		t.Errorf("resp = %+v", resp)
	}
	if badHits.Load() != 1 || goodHits.Load() != 1 {
		t.Errorf("hits bad=%d good=%d, want 1/1", badHits.Load(), goodHits.Load())
	}
	if got := c.Metrics().RequestRetries.Load(); got != 1 {
		t.Errorf("retries = %d, want 1", got)
	}
	if got := c.Metrics().WorkerCooldowns.Load(); got != 1 {
		t.Errorf("cooldowns = %d, want 1", got)
	}

	// The cooled worker is skipped: the next request goes straight to good.
	if _, _, err := c.Synthesize(context.Background(), &service.Request{Protocol: "tokenring"}, "req-2"); err != nil {
		t.Fatal(err)
	}
	if badHits.Load() != 1 {
		t.Errorf("cooled worker hit again: %d", badHits.Load())
	}
}

// A worker's Retry-After advice stretches the backoff before the retry.
func TestClientHonorsRetryAfter(t *testing.T) {
	var hits atomic.Int64
	w1 := cannedWorker(t, func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) == 1 {
			w.Header().Set("Retry-After", "1")
			http.Error(w, `{"error":"job queue full, retry later"}`, http.StatusServiceUnavailable)
			return
		}
		w.Write([]byte(cannedResponse)) //nolint:errcheck
	})
	c := fastClient(t, ClientConfig{Workers: []string{w1.URL}, MaxAttempts: 2})

	start := time.Now()
	_, _, err := c.Synthesize(context.Background(), &service.Request{Protocol: "tokenring"}, "req-ra")
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 800*time.Millisecond {
		t.Errorf("retried after %s, want >= ~1s per the worker's Retry-After", elapsed)
	}
	if hits.Load() != 2 {
		t.Errorf("hits = %d, want 2", hits.Load())
	}
}

// A 422 is the worker's verdict on the schedule, not an infrastructure
// failure: no retry, and IsSynthesisFailure identifies it.
func TestClientSynthesisFailureIsPermanent(t *testing.T) {
	var hits atomic.Int64
	w1 := cannedWorker(t, func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		http.Error(w, `{"error":"synthesis failed"}`, http.StatusUnprocessableEntity)
	})
	c := fastClient(t, ClientConfig{Workers: []string{w1.URL}, MaxAttempts: 5})

	_, _, err := c.Synthesize(context.Background(), &service.Request{Protocol: "gouda-acharya"}, "req-422")
	if !IsSynthesisFailure(err) {
		t.Fatalf("err = %v, want a synthesis failure", err)
	}
	if hits.Load() != 1 {
		t.Errorf("422 was retried: %d hits", hits.Load())
	}
	var ce *client.Error
	if !errors.As(err, &ce) || ce.Temporary() {
		t.Errorf("422 classified as temporary: %+v", ce)
	}
}

// A retry that ends on a 422 is still a synthesis failure: the first
// worker's 503 is retried on the second, whose 422 is final and names that
// worker.
func TestClientRetryEndingIn422IsSynthesisFailure(t *testing.T) {
	var busyHits, failHits atomic.Int64
	busy := cannedWorker(t, func(w http.ResponseWriter, r *http.Request) {
		busyHits.Add(1)
		http.Error(w, `{"error":"draining"}`, http.StatusServiceUnavailable)
	})
	fail := cannedWorker(t, func(w http.ResponseWriter, r *http.Request) {
		failHits.Add(1)
		http.Error(w, `{"error":"synthesis failed"}`, http.StatusUnprocessableEntity)
	})
	c := fastClient(t, ClientConfig{Workers: []string{busy.URL, fail.URL}})

	_, _, err := c.Synthesize(context.Background(), &service.Request{Protocol: "gouda-acharya"}, "req-503-422")
	if !IsSynthesisFailure(err) {
		t.Fatalf("err = %v, want a synthesis failure", err)
	}
	if busyHits.Load() != 1 || failHits.Load() != 1 {
		t.Errorf("hits busy=%d fail=%d, want 1/1 (the 422 must not be retried)", busyHits.Load(), failHits.Load())
	}
	var ce *client.Error
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want a *client.Error", err)
	}
	if ce.Endpoint != fail.URL || ce.Status != http.StatusUnprocessableEntity {
		t.Errorf("error names %s HTTP %d, want %s HTTP 422", ce.Endpoint, ce.Status, fail.URL)
	}
	if got := c.Metrics().RequestRetries.Load(); got != 1 {
		t.Errorf("retries = %d, want 1", got)
	}
}

// Other 4xx responses are permanent too — every worker would agree the
// request is wrong.
func TestClientBadRequestIsPermanent(t *testing.T) {
	var hits atomic.Int64
	w1 := cannedWorker(t, func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		http.Error(w, `{"error":"bad request body"}`, http.StatusBadRequest)
	})
	c := fastClient(t, ClientConfig{Workers: []string{w1.URL}, MaxAttempts: 5})
	_, _, err := c.Synthesize(context.Background(), &service.Request{}, "req-400")
	if err == nil || IsSynthesisFailure(err) {
		t.Fatalf("err = %v", err)
	}
	if hits.Load() != 1 {
		t.Errorf("400 was retried: %d hits", hits.Load())
	}
}
