package dist

import (
	"context"
	"errors"
	"net/http"
	"time"

	"stsyn/internal/service"
	"stsyn/pkg/client"
)

// ClientConfig configures the resilient worker client. Zero values select
// the documented defaults. The retry/backoff/rotation machinery itself
// lives in the published pkg/client; this type keeps the coordinator's
// configuration surface and its metrics/log plumbing.
type ClientConfig struct {
	// Workers are the base URLs of the stsyn-serve workers (e.g.
	// "http://10.0.0.5:8080"). At least one is required.
	Workers []string
	// HTTPClient is the transport (default http.DefaultClient). The client
	// applies RequestTimeout per attempt itself; the http.Client's own
	// Timeout should stay 0.
	HTTPClient *http.Client
	// RequestTimeout bounds one HTTP attempt (default 2m — synthesis jobs
	// are slow by design).
	RequestTimeout time.Duration
	// MaxAttempts bounds the attempts per logical request, first try
	// included (default 2×len(Workers); 1 disables retries).
	MaxAttempts int
	// BackoffBase and BackoffMax shape the capped exponential backoff
	// between attempts (defaults 50ms and 2s); jitter of ±50% is applied.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// RetryAfterMax caps how long a worker's Retry-After advice is honored
	// (default 5s).
	RetryAfterMax time.Duration
	// FailureThreshold is the number of consecutive failures after which a
	// worker is cooled down — skipped by the rotation — for Cooldown
	// (defaults 3 and 5s). The cooled worker is still used when every
	// worker is cooling, so the client never deadlocks itself.
	FailureThreshold int
	Cooldown         time.Duration
	// Tenant, when set, names the tenant bucket the workers account these
	// requests to (the X-Stsyn-Tenant header of per-tenant admission).
	Tenant string
	// Metrics, when non-nil, receives the client's counters.
	Metrics *Metrics
	// Logf, when non-nil, receives one line per retry/cooldown event.
	Logf func(format string, args ...interface{})
}

// IsSynthesisFailure reports whether err is a worker's 422 — the heuristic
// failed on that schedule. That is a result, not an infrastructure
// failure: the coordinator moves to the next schedule.
func IsSynthesisFailure(err error) bool {
	var ce *client.Error
	return errors.As(err, &ce) && ce.Status == http.StatusUnprocessableEntity
}

// Client fans synthesis requests out to a fleet of stsyn-serve workers
// with per-attempt timeouts, capped exponential backoff with jitter,
// Retry-After honoring and failure-aware worker rotation. The resilience
// core is pkg/client's middleware stack; this type adds the coordinator's
// metrics and log plumbing. Safe for concurrent use.
type Client struct {
	inner   *client.Client
	metrics *Metrics
	logf    func(string, ...interface{})
}

// NewClient validates cfg and builds a Client.
func NewClient(cfg ClientConfig) (*Client, error) {
	if len(cfg.Workers) == 0 {
		return nil, errors.New("dist: no workers configured")
	}
	c := &Client{metrics: cfg.Metrics, logf: cfg.Logf}
	if c.metrics == nil {
		c.metrics = &Metrics{}
	}
	if c.logf == nil {
		c.logf = func(string, ...interface{}) {}
	}
	inner, err := client.New(client.Config{
		Endpoints:        cfg.Workers,
		HTTPClient:       cfg.HTTPClient,
		AttemptTimeout:   cfg.RequestTimeout,
		MaxAttempts:      cfg.MaxAttempts,
		BackoffBase:      cfg.BackoffBase,
		BackoffMax:       cfg.BackoffMax,
		RetryAfterMax:    cfg.RetryAfterMax,
		FailureThreshold: cfg.FailureThreshold,
		Cooldown:         cfg.Cooldown,
		Tenant:           cfg.Tenant,
		Observer: &client.Observer{
			OnAttempt: func(string) { c.metrics.RequestsTotal.Add(1) },
			OnRetry: func(attempt int, wait time.Duration, last error) {
				c.metrics.RequestRetries.Add(1)
				c.logf("dist: retrying (attempt %d) in %s after: %v", attempt, wait, last)
			},
			OnCooldown: func(worker string, fails int, d time.Duration) {
				c.metrics.WorkerCooldowns.Add(1)
				c.logf("dist: worker %s cooling down for %s after %d consecutive failures", worker, d, fails)
			},
		},
	})
	if err != nil {
		return nil, err
	}
	c.inner = inner
	return c, nil
}

// Metrics returns the counters the client publishes to.
func (c *Client) Metrics() *Metrics { return c.metrics }

// WorkerStatus is one worker's health snapshot.
type WorkerStatus struct {
	URL        string
	Fails      int           // consecutive failures
	CoolingFor time.Duration // 0 when healthy
}

// Workers snapshots each worker's health.
func (c *Client) Workers() []WorkerStatus {
	eps := c.inner.Endpoints()
	out := make([]WorkerStatus, len(eps))
	for i, ep := range eps {
		out[i] = WorkerStatus{URL: ep.URL, Fails: ep.Fails, CoolingFor: ep.CoolingFor}
	}
	return out
}

// Synthesize runs one synthesis request against the fleet, retrying per
// the configured policy. reqID is the X-Request-ID shared by every attempt
// of this logical request, so worker logs join across retries. It returns
// the decoded response plus the raw response bytes (for the journal). A
// worker's error response comes back as a *client.Error; a 422 is not
// retried (see IsSynthesisFailure).
func (c *Client) Synthesize(ctx context.Context, req *service.Request, reqID string) (*service.Response, []byte, error) {
	return c.inner.SynthesizeRaw(ctx, req, reqID)
}
