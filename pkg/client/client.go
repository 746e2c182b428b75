package client

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
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

// Config configures a Client. Zero values select the documented defaults;
// only Endpoints is required.
type Config struct {
	// Endpoints are the base URLs of the stsyn-serve instances (e.g.
	// "http://10.0.0.5:8080"). At least one is required.
	Endpoints []string
	// HTTPClient is the transport (default http.DefaultClient). The client
	// applies AttemptTimeout per attempt itself; the http.Client's own
	// Timeout should stay 0.
	HTTPClient *http.Client
	// AttemptTimeout bounds one HTTP attempt (default 2m).
	AttemptTimeout time.Duration
	// MaxAttempts bounds attempts per logical request, first try included
	// (default 2×len(Endpoints); 1 disables retries).
	MaxAttempts int
	// BackoffBase and BackoffMax shape the capped exponential backoff
	// between attempts (defaults 50ms and 2s); ±50% jitter is applied.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// RetryAfterMax caps how long a server's Retry-After advice is honored
	// (default 5s).
	RetryAfterMax time.Duration
	// FailureThreshold and Cooldown configure endpoint rotation: after
	// FailureThreshold consecutive failures an endpoint is skipped for
	// Cooldown (defaults 3 and 5s), unless every endpoint is cooling.
	FailureThreshold int
	Cooldown         time.Duration
	// MaxResponseBytes bounds response bodies (default 64 MiB).
	MaxResponseBytes int64
	// UserAgent, when set, is stamped on requests that lack one.
	UserAgent string
	// Tenant, when set, names the tenant bucket requests are accounted to
	// (the X-Stsyn-Tenant header).
	Tenant string
	// NewRequestID supplies correlation IDs for requests the caller did
	// not stamp (default: random 16-hex-digit).
	NewRequestID func() string
	// Observer, when non-nil, receives the retry loop's events.
	Observer *Observer
	// Middleware is appended outside the built-in stack (outermost first),
	// for caller-supplied tracing, auth, and the like.
	Middleware []Middleware
}

// Observer receives the client's retry-loop events, for callers that
// aggregate their own metrics.
type Observer struct {
	// OnAttempt fires once per HTTP attempt, before it is sent.
	OnAttempt func(endpoint string)
	// OnRetry fires before each backoff wait.
	OnRetry func(attempt int, wait time.Duration, last error)
	// OnCooldown fires when an endpoint enters failure cooldown.
	OnCooldown func(endpoint string, fails int, d time.Duration)
}

// Client is a typed stsyn-serve client over a resilient middleware stack.
// Safe for concurrent use.
type Client struct {
	doer      Doer
	endpoints *Endpoints
}

// New validates cfg and builds a Client.
func New(cfg Config) (*Client, error) {
	eps, err := NewEndpoints(cfg.Endpoints)
	if err != nil {
		return nil, err
	}
	eps.SetCooldown(cfg.FailureThreshold, cfg.Cooldown)
	hc := cfg.HTTPClient
	if hc == nil {
		hc = http.DefaultClient
	}
	newID := cfg.NewRequestID
	if newID == nil {
		newID = NewRequestID
	}
	rcfg := RetryConfig{
		Endpoints:        eps,
		MaxAttempts:      cfg.MaxAttempts,
		AttemptTimeout:   cfg.AttemptTimeout,
		BackoffBase:      cfg.BackoffBase,
		BackoffMax:       cfg.BackoffMax,
		RetryAfterMax:    cfg.RetryAfterMax,
		MaxResponseBytes: cfg.MaxResponseBytes,
	}
	if obs := cfg.Observer; obs != nil {
		rcfg.OnAttempt = obs.OnAttempt
		rcfg.OnRetry = obs.OnRetry
		rcfg.OnCooldown = obs.OnCooldown
	}
	mw := append([]Middleware{}, cfg.Middleware...)
	if cfg.UserAgent != "" {
		mw = append(mw, WithUserAgent(cfg.UserAgent))
	}
	if cfg.Tenant != "" {
		mw = append(mw, WithHeader(TenantHeader, cfg.Tenant))
	}
	mw = append(mw, WithRequestID(newID), WithRetry(rcfg))
	return &Client{doer: Wrap(hc, mw...), endpoints: eps}, nil
}

// NewRequestID returns a fresh 16-hex-digit correlation ID.
func NewRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "0000000000000000"
	}
	return hex.EncodeToString(b[:])
}

// Endpoints snapshots each endpoint's health.
func (c *Client) Endpoints() []EndpointStatus { return c.endpoints.Status() }

// roundTrip runs one typed call: marshal in (when non-nil), send, read
// the (already buffered) body, and either decode a non-want status into a
// typed error or unmarshal the body into out (when non-nil). The returned
// bytes are the compacted response body.
func (c *Client) roundTrip(ctx context.Context, method, path string, in interface{}, reqID string, want int, out interface{}) ([]byte, error) {
	var body *bytes.Reader
	if in != nil {
		data, err := json.Marshal(in)
		if err != nil {
			return nil, fmt.Errorf("client: marshal request: %w", err)
		}
		body = bytes.NewReader(data)
	} else {
		body = bytes.NewReader(nil)
	}
	req, err := http.NewRequestWithContext(ctx, method, path, body)
	if err != nil {
		return nil, fmt.Errorf("client: build request: %w", err)
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if reqID != "" {
		req.Header.Set(RequestIDHeader, reqID)
	}
	resp, err := c.doer.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, &Error{Endpoint: endpointOf(resp), Err: fmt.Errorf("reading response: %w", err)}
	}
	// Servers pretty-print their bodies; compact so callers that persist
	// raw responses (the dist journal) get a canonical byte form.
	if compacted := new(bytes.Buffer); json.Compact(compacted, raw) == nil {
		raw = compacted.Bytes()
	}
	if resp.StatusCode != want {
		serr := stsynerr.Decode(resp.StatusCode, raw)
		ce := &Error{Endpoint: endpointOf(resp), Status: resp.StatusCode, Err: serr}
		if serr.RetryAfter > 0 {
			ce.RetryAfter = time.Duration(serr.RetryAfter) * time.Second
		}
		return raw, ce
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			return nil, &Error{Endpoint: endpointOf(resp), Err: fmt.Errorf("bad response body: %w", err)}
		}
	}
	return raw, nil
}

// endpointOf recovers the base URL that answered a response.
func endpointOf(resp *http.Response) string {
	if resp.Request != nil && resp.Request.URL != nil {
		return resp.Request.URL.Scheme + "://" + resp.Request.URL.Host
	}
	return ""
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
	if _, err := c.roundTrip(ctx, http.MethodGet, "/v1/jobs/"+id, nil, "", http.StatusOK, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// CancelJob cancels a live job (DELETE /v1/jobs/{id}); the engine stops
// at its next cancellation point and the job's status turns canceled.
func (c *Client) CancelJob(ctx context.Context, id string) (*stsynapi.JobStatus, error) {
	var out stsynapi.JobStatus
	if _, err := c.roundTrip(ctx, http.MethodDelete, "/v1/jobs/"+id, nil, "", http.StatusOK, &out); err != nil {
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
