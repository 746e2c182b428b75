package client

import (
	"errors"
	"strings"
	"sync"
	"time"
)

// endpoints is a rotating set of service base URLs with failure-aware
// cooldown: consecutive failures past a threshold take an endpoint out of
// rotation for a cooldown period, and the rotation falls back to plain
// round-robin when every endpoint is cooling so the client never
// deadlocks itself. Safe for concurrent use.
type endpoints struct {
	urls      []string
	threshold int // consecutive failures before cooldown
	cooldown  time.Duration
	now       func() time.Time // test hook

	mu    sync.Mutex
	state []endpointState
	rr    int // round-robin cursor
}

type endpointState struct {
	fails     int
	coolUntil time.Time
}

// EndpointStatus is one endpoint's health snapshot.
type EndpointStatus struct {
	URL        string
	Fails      int           // consecutive failures
	CoolingFor time.Duration // 0 when healthy
}

// newEndpoints builds a rotation over the given base URLs (trailing
// slashes are trimmed). At least one is required; non-positive threshold
// and cooldown select 3 failures and 5s.
func newEndpoints(urls []string, threshold int, cooldown time.Duration) (*endpoints, error) {
	if len(urls) == 0 {
		return nil, errors.New("client: no endpoints configured")
	}
	if threshold <= 0 {
		threshold = 3
	}
	if cooldown <= 0 {
		cooldown = 5 * time.Second
	}
	cleaned := make([]string, len(urls))
	for i, u := range urls {
		cleaned[i] = strings.TrimRight(u, "/")
	}
	return &endpoints{
		urls:      cleaned,
		threshold: threshold,
		cooldown:  cooldown,
		now:       time.Now,
		state:     make([]endpointState, len(urls)),
	}, nil
}

// pick returns the next endpoint in rotation, skipping the excluded index
// (the one that just failed; -1 for none) and ones in cooldown; when
// every endpoint is cooling it falls back to plain rotation.
func (e *endpoints) pick(exclude int) (int, string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	now := e.now()
	n := len(e.urls)
	for scan := 0; scan < n; scan++ {
		i := e.rr % n
		e.rr++
		if i == exclude && n > 1 {
			continue
		}
		if now.Before(e.state[i].coolUntil) {
			continue
		}
		return i, e.urls[i]
	}
	i := e.rr % n
	e.rr++
	return i, e.urls[i]
}

// markSuccess resets an endpoint's failure streak.
func (e *endpoints) markSuccess(i int) {
	e.mu.Lock()
	e.state[i] = endpointState{}
	e.mu.Unlock()
}

// markFailure records one failure; crossing the threshold starts a
// cooldown and reports (true, fails) exactly once per cooldown so the
// caller can count and log it.
func (e *endpoints) markFailure(i int) (cooled bool, fails int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	st := &e.state[i]
	st.fails++
	if now := e.now(); st.fails >= e.threshold && now.After(st.coolUntil) {
		st.coolUntil = now.Add(e.cooldown)
		return true, st.fails
	}
	return false, st.fails
}

// status snapshots each endpoint's health.
func (e *endpoints) status() []EndpointStatus {
	e.mu.Lock()
	defer e.mu.Unlock()
	now := e.now()
	out := make([]EndpointStatus, len(e.urls))
	for i, u := range e.urls {
		out[i] = EndpointStatus{URL: u, Fails: e.state[i].fails}
		if d := e.state[i].coolUntil.Sub(now); d > 0 {
			out[i].CoolingFor = d
		}
	}
	return out
}
