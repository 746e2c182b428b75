package dist

import (
	"context"
	"errors"
	"net/http"
	"time"

	"stsyn/internal/service"
	"stsyn/pkg/client"
)

// ClientConfig configures the worker client, a pkg/client.Client; zero
// values select pkg/client's defaults (see client.Config).
type ClientConfig struct {
	// Workers are the base URLs of the stsyn-serve workers. At least one
	// is required.
	Workers []string
	// HTTPClient is the transport; its own Timeout should stay 0.
	HTTPClient *http.Client
	// RequestTimeout bounds one HTTP attempt (client.Config.AttemptTimeout).
	RequestTimeout time.Duration
	// MaxAttempts, BackoffBase and BackoffMax shape the retries.
	MaxAttempts int
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// FailureThreshold consecutive failures cool a worker down — skip it
	// in the rotation — for Cooldown.
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

// Client sends synthesis requests to a fleet of stsyn-serve workers
// through pkg/client's request loop (retries, backoff, Retry-After,
// worker rotation) and adds the coordinator's metrics and log lines.
// Safe for concurrent use.
type Client struct {
	inner   *client.Client
	metrics *Metrics
	logf    func(string, ...interface{})
}

// NewClient validates cfg and builds a Client.
func NewClient(cfg ClientConfig) (*Client, error) {
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

// Workers snapshots each worker's health.
func (c *Client) Workers() []client.EndpointStatus { return c.inner.Endpoints() }

// Synthesize runs one synthesis request against the fleet, retrying per
// the configured policy. reqID is the X-Request-ID shared by every attempt
// of this logical request, so worker logs join across retries. It returns
// the decoded response plus the raw response bytes (for the journal). A
// worker's error response comes back as a *client.Error; a 422 is not
// retried (see IsSynthesisFailure).
func (c *Client) Synthesize(ctx context.Context, req *service.Request, reqID string) (*service.Response, []byte, error) {
	return c.inner.SynthesizeRaw(ctx, req, reqID)
}
