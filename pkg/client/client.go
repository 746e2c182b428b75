// Package client is the published Go client for the stsyn synthesis
// service: one request loop (per-attempt timeouts, capped exponential
// backoff with jitter, Retry-After honoring, failure-cooldown endpoint
// rotation, one X-Request-ID across every attempt) under a typed API over
// every service endpoint — synchronous synthesis, the async job lifecycle
// (submit / poll / cancel / wait) and batching. Tracing and auth wrap
// Config.HTTPClient's Transport, which sees every attempt.
//
// Every service failure surfaces as a *client.Error wrapping the typed
// *stsynerr.Error the server emitted, so callers branch with errors.As /
// errors.Is on registered error names instead of matching message strings:
//
//	resp, err := c.Synthesize(ctx, req)
//	if stsynerr.IsName(err, stsynerr.QueueFull) { backoffAndRetry() }
//
// The package imports only the standard library and the wire contract
// (pkg/stsynapi, pkg/stsynerr) — no internal packages — so it is safe to
// depend on from outside the repository.
package client

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	mrand "math/rand/v2"
	"net/http"
	"net/url"
	"time"

	"stsyn/pkg/stsynapi"
	"stsyn/pkg/stsynerr"
)

// RequestIDHeader and TenantHeader re-export the correlation headers of
// the wire contract.
const (
	RequestIDHeader = stsynapi.RequestIDHeader
	TenantHeader    = stsynapi.TenantHeader
)

const (
	// maxResponseBytes bounds how much of a response body is read.
	maxResponseBytes = 64 << 20
	// retryAfterMax caps how long a server's Retry-After advice is honored.
	retryAfterMax = 5 * time.Second
)

// Config configures a Client. Zero values select the documented defaults;
// only Endpoints is required.
type Config struct {
	// Endpoints are the base URLs of the stsyn-serve instances (e.g.
	// "http://10.0.0.5:8080"). At least one is required.
	Endpoints []string
	// HTTPClient is the transport (default http.DefaultClient). The client
	// applies AttemptTimeout per attempt itself; the http.Client's own
	// Timeout should stay 0. Tracing or auth wraps its Transport, which
	// runs once per attempt.
	HTTPClient *http.Client
	// AttemptTimeout bounds one HTTP attempt, reading the body included
	// (default 2m — synthesis jobs are slow by design).
	AttemptTimeout time.Duration
	// MaxAttempts bounds attempts per logical request, first try included
	// (default 2×len(Endpoints); 1 disables retries).
	MaxAttempts int
	// BackoffBase and BackoffMax shape the capped exponential backoff
	// between attempts (defaults 50ms and 2s); ±50% jitter is applied, and
	// a longer Retry-After advice wins, up to 5s.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// FailureThreshold and Cooldown configure endpoint rotation: after
	// FailureThreshold consecutive failures an endpoint is skipped for
	// Cooldown (defaults 3 and 5s), unless every endpoint is cooling.
	FailureThreshold int
	Cooldown         time.Duration
	// Tenant, when set, names the tenant bucket requests are accounted to
	// (the X-Stsyn-Tenant header).
	Tenant string
	// Observer, when non-nil, receives the request loop's events.
	Observer *Observer
}

// Observer receives the client's request-loop events, for callers that
// aggregate their own metrics.
type Observer struct {
	// OnAttempt fires once per HTTP attempt, before it is sent.
	OnAttempt func(endpoint string)
	// OnRetry fires before each backoff wait.
	OnRetry func(attempt int, wait time.Duration, last error)
	// OnCooldown fires when an endpoint enters failure cooldown.
	OnCooldown func(endpoint string, fails int, d time.Duration)
}

// Client is a typed stsyn-serve client over one resilient request loop.
// Safe for concurrent use.
type Client struct {
	hc             *http.Client
	eps            *endpoints
	tenant         string
	obs            Observer
	maxAttempts    int
	attemptTimeout time.Duration
	backoffBase    time.Duration
	backoffMax     time.Duration
}

// New validates cfg and builds a Client.
func New(cfg Config) (*Client, error) {
	eps, err := newEndpoints(cfg.Endpoints, cfg.FailureThreshold, cfg.Cooldown)
	if err != nil {
		return nil, err
	}
	c := &Client{
		hc:             cfg.HTTPClient,
		eps:            eps,
		tenant:         cfg.Tenant,
		maxAttempts:    cfg.MaxAttempts,
		attemptTimeout: cfg.AttemptTimeout,
		backoffBase:    cfg.BackoffBase,
		backoffMax:     cfg.BackoffMax,
	}
	if cfg.Observer != nil {
		c.obs = *cfg.Observer
	}
	if c.hc == nil {
		c.hc = http.DefaultClient
	}
	if c.maxAttempts <= 0 {
		c.maxAttempts = 2 * len(eps.urls)
	}
	if c.attemptTimeout <= 0 {
		c.attemptTimeout = 2 * time.Minute
	}
	if c.backoffBase <= 0 {
		c.backoffBase = 50 * time.Millisecond
	}
	if c.backoffMax <= 0 {
		c.backoffMax = 2 * time.Second
	}
	return c, nil
}

// newRequestID returns a fresh 16-hex-digit correlation ID.
func newRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "0000000000000000"
	}
	return hex.EncodeToString(b[:])
}

// Endpoints snapshots each endpoint's health.
func (c *Client) Endpoints() []EndpointStatus { return c.eps.status() }

// roundTrip runs one typed call: marshal in (when non-nil), run the
// request loop, and unmarshal the answer into out (when non-nil). The
// returned bytes are the compacted response body.
func (c *Client) roundTrip(ctx context.Context, method, path string, in interface{}, reqID string, want int, out interface{}) ([]byte, error) {
	var body []byte
	if in != nil {
		var err error
		if body, err = json.Marshal(in); err != nil {
			return nil, fmt.Errorf("client: marshal request: %w", err)
		}
	}
	raw, endpoint, err := c.do(ctx, method, path, body, reqID, want)
	if err != nil {
		return nil, err
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			return nil, &Error{Endpoint: endpoint, Err: fmt.Errorf("bad response body: %w", err)}
		}
	}
	return raw, nil
}

// do is the request loop. Each attempt goes to the next endpoint in
// rotation and carries the same request ID (a fresh one when reqID is
// empty); an answer with status want returns its compacted body and the
// endpoint that gave it. Transport failures and the statuses
// (*Error).Temporary accepts count against the endpoint and are retried,
// after a jittered backoff stretched by Retry-After advice; any other
// status is the final answer.
func (c *Client) do(ctx context.Context, method, path string, body []byte, reqID string, want int) ([]byte, string, error) {
	if reqID == "" {
		reqID = newRequestID()
	}
	var last *Error
	lastIdx := -1
	for attempt := 1; attempt <= c.maxAttempts; attempt++ {
		if attempt > 1 {
			wait := c.backoff(attempt-1, last)
			if c.obs.OnRetry != nil {
				c.obs.OnRetry(attempt, wait, last)
			}
			select {
			case <-time.After(wait):
			case <-ctx.Done():
				return nil, "", ctx.Err()
			}
		}
		if err := ctx.Err(); err != nil {
			return nil, "", err
		}
		idx, base := c.eps.pick(lastIdx)
		lastIdx = idx
		resp, raw, err := c.attempt(ctx, method, base, path, body, reqID)
		if err != nil {
			if ctx.Err() != nil {
				return nil, "", err
			}
			last = &Error{Endpoint: base, Err: err}
			c.markFailure(idx, base)
			continue
		}
		if resp.StatusCode < 300 {
			c.eps.markSuccess(idx)
		}
		if resp.StatusCode == want {
			return raw, base, nil
		}
		ce := responseError(base, resp, raw)
		if !ce.Temporary() {
			// A permanent verdict (a 4xx, or an unwanted 2xx/3xx): every
			// endpoint would agree, so it is neither a failure of this
			// endpoint nor worth a retry.
			return nil, "", ce
		}
		last = ce
		c.markFailure(idx, base)
	}
	return nil, "", fmt.Errorf("client: request failed after %d attempts: %w", c.maxAttempts, last)
}

// attempt sends one try to one endpoint and reads its body, compacted,
// inside the attempt's timeout.
func (c *Client) attempt(ctx context.Context, method, base, path string, body []byte, reqID string) (*http.Response, []byte, error) {
	if c.obs.OnAttempt != nil {
		c.obs.OnAttempt(base)
	}
	actx, cancel := context.WithTimeout(ctx, c.attemptTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(actx, method, base+path, bytes.NewReader(body))
	if err != nil {
		return nil, nil, fmt.Errorf("building request: %w", err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if c.tenant != "" {
		req.Header.Set(TenantHeader, c.tenant)
	}
	req.Header.Set(RequestIDHeader, reqID)
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, maxResponseBytes))
	if err != nil {
		return nil, nil, fmt.Errorf("reading response: %w", err)
	}
	// Servers pretty-print their bodies; compact so callers that persist
	// raw responses (the dist journal) get a canonical byte form.
	if compacted := new(bytes.Buffer); json.Compact(compacted, raw) == nil {
		raw = compacted.Bytes()
	}
	return resp, raw, nil
}

// backoff computes the wait before retry number attempt (1-based),
// honoring the failed endpoint's Retry-After advice when it is larger.
func (c *Client) backoff(attempt int, last *Error) time.Duration {
	d := c.backoffBase << uint(attempt-1)
	if d > c.backoffMax || d <= 0 {
		d = c.backoffMax
	}
	d = time.Duration(float64(d) * (0.5 + mrand.Float64())) // ±50%
	if last.RetryAfter > d {
		d = min(last.RetryAfter, retryAfterMax)
	}
	return d
}

// markFailure records a failure on the rotation and surfaces new
// cooldowns to the observer.
func (c *Client) markFailure(idx int, base string) {
	if cooled, fails := c.eps.markFailure(idx); cooled && c.obs.OnCooldown != nil {
		c.obs.OnCooldown(base, fails, c.eps.cooldown)
	}
}

// Synthesize runs one synthesis request synchronously (POST
// /v1/synthesize), retrying across endpoints. Service failures come back
// as *client.Error values wrapping the decoded *stsynerr.Error.
func (c *Client) Synthesize(ctx context.Context, req *stsynapi.Request) (*stsynapi.Response, error) {
	resp, _, err := c.SynthesizeRaw(ctx, req, "")
	return resp, err
}

// SynthesizeRaw is Synthesize returning the raw (compacted) response
// bytes alongside the decoded response, for callers that persist exact
// bytes — the dist journal's byte-identical replay depends on this.
// reqID, when non-empty, is the X-Request-ID shared by every attempt of
// this logical request, joining server logs across retries.
func (c *Client) SynthesizeRaw(ctx context.Context, req *stsynapi.Request, reqID string) (*stsynapi.Response, []byte, error) {
	var out stsynapi.Response
	raw, err := c.roundTrip(ctx, http.MethodPost, "/v1/synthesize", req, reqID, http.StatusOK, &out)
	if err != nil {
		return nil, nil, err
	}
	return &out, raw, nil
}

// SubmitJob submits a synthesis request asynchronously (POST /v1/jobs)
// and returns the accepted job's status envelope — poll it with Job or
// block with WaitJob. The answer for a given request is byte-identical to
// the synchronous path's; the two share the server's cache.
func (c *Client) SubmitJob(ctx context.Context, req *stsynapi.Request) (*stsynapi.JobStatus, error) {
	var out stsynapi.JobStatus
	if _, err := c.roundTrip(ctx, http.MethodPost, "/v1/jobs", req, "", http.StatusAccepted, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Job polls one job's status (GET /v1/jobs/{id}). Unknown and expired
// IDs answer a typed JobNotFound.
func (c *Client) Job(ctx context.Context, id string) (*stsynapi.JobStatus, error) {
	var out stsynapi.JobStatus
	if _, err := c.roundTrip(ctx, http.MethodGet, "/v1/jobs/"+url.PathEscape(id), nil, "", http.StatusOK, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// CancelJob cancels a live job (DELETE /v1/jobs/{id}); the engine stops
// at its next cancellation point and the job's status turns canceled.
func (c *Client) CancelJob(ctx context.Context, id string) (*stsynapi.JobStatus, error) {
	var out stsynapi.JobStatus
	if _, err := c.roundTrip(ctx, http.MethodDelete, "/v1/jobs/"+url.PathEscape(id), nil, "", http.StatusOK, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// WaitJob polls a job until it is terminal and returns its response: a
// failed or canceled job's typed error comes back as a *client.Error
// wrapping the *stsynerr.Error the server recorded. poll is the polling
// interval (default 100ms); ctx bounds the wait.
func (c *Client) WaitJob(ctx context.Context, id string, poll time.Duration) (*stsynapi.Response, error) {
	if poll <= 0 {
		poll = 100 * time.Millisecond
	}
	for {
		js, err := c.Job(ctx, id)
		if err != nil {
			return nil, err
		}
		switch js.State {
		case stsynapi.JobDone:
			return js.Response, nil
		case stsynapi.JobFailed, stsynapi.JobCanceled:
			serr := &stsynerr.Error{Name: stsynerr.Internal, Message: "job failed without a recorded error"}
			if js.Error != nil {
				serr = js.Error.AsError(0)
			}
			return nil, &Error{Status: serr.HTTPStatus(), Err: serr}
		}
		select {
		case <-time.After(poll):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// Batch answers many synthesis requests in one round trip (POST
// /v1/batch): the server parses, deduplicates and cache-checks them as a
// set, and per-item outcomes land positionally in the result (inspect
// each item's Error envelope with AsError for the typed form).
func (c *Client) Batch(ctx context.Context, reqs []stsynapi.Request) (*stsynapi.BatchResponse, error) {
	var out stsynapi.BatchResponse
	in := &stsynapi.BatchRequest{Requests: reqs}
	if _, err := c.roundTrip(ctx, http.MethodPost, "/v1/batch", in, "", http.StatusOK, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Protocols lists the server's built-in protocol names (GET /v1/protocols).
func (c *Client) Protocols(ctx context.Context) ([]string, error) {
	var out struct {
		Protocols []string `json:"protocols"`
	}
	if _, err := c.roundTrip(ctx, http.MethodGet, "/v1/protocols", nil, "", http.StatusOK, &out); err != nil {
		return nil, err
	}
	return out.Protocols, nil
}
