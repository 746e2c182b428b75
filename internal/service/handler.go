package service

import (
	"encoding/json"
	"errors"
	"net/http"
	"strings"

	"stsyn/internal/cli"
	"stsyn/pkg/stsynapi"
	"stsyn/pkg/stsynerr"
)

// maxRequestBytes bounds a synthesize request body (inline specs included).
const maxRequestBytes = 1 << 20

// Handler returns the service's HTTP API:
//
//	POST   /v1/synthesize  — run (or serve from cache) a synthesis job
//	POST   /v1/jobs        — submit a job asynchronously (202 + job ID)
//	GET    /v1/jobs/{id}   — poll a job's state / result / typed error
//	DELETE /v1/jobs/{id}   — cancel a live job
//	POST   /v1/batch       — run many jobs in one call (dedup + cache)
//	GET    /v1/protocols   — list the built-in protocol names
//	GET    /healthz        — liveness
//	GET    /metrics        — Prometheus text-format counters
//
// Every request gets an X-Request-ID correlation header (inbound one
// echoed, fresh one generated) that also appears in JSON error bodies, and
// every error body is the typed envelope of pkg/stsynerr. The synthesis
// endpoints sit behind per-tenant token-bucket admission (tenant named by
// the X-Stsyn-Tenant header, anonymous traffic sharing one bucket).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/synthesize", s.handleSynthesize)
	mux.HandleFunc("/v1/jobs", s.handleJobSubmit)
	mux.HandleFunc("/v1/jobs/", s.handleJob)
	mux.HandleFunc("/v1/batch", s.handleBatch)
	mux.HandleFunc("/v1/protocols", s.handleProtocols)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	return withRequestID(mux)
}

// requirePost answers the typed 405 for non-POST methods on POST-only
// endpoints (reported false when it already wrote the response).
func requirePost(w http.ResponseWriter, r *http.Request) bool {
	if r.Method == http.MethodPost {
		return true
	}
	w.Header().Set("Allow", http.MethodPost)
	writeError(w, stsynerr.New(stsynerr.MethodNotAllowed, "POST only"))
	return false
}

// decodeRequest parses a bounded JSON body into v with unknown fields
// rejected, mapping failures to the typed contract.
func decodeRequest(w http.ResponseWriter, r *http.Request, v interface{}) *Error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return stsynerr.Wrap(stsynerr.RequestTooLarge, "request body too large", err)
		}
		return stsynerr.Wrap(stsynerr.InvalidRequest, "bad request body", err)
	}
	return nil
}

// admit charges n tokens against the request's tenant bucket, answering
// the typed 429 (with Retry-After) itself when the tenant is over rate.
func (s *Server) admit(w http.ResponseWriter, r *http.Request, n int) bool {
	if s.admission == nil {
		return true
	}
	tenant := r.Header.Get(TenantHeader)
	if tenant == "" {
		tenant = "anonymous"
	}
	ok, retryAfter := s.admission.allow(tenant, n)
	if ok {
		return true
	}
	s.metrics.AdmissionRejected.Add(1)
	e := stsynerr.Newf(stsynerr.RateLimited, "tenant %q over rate limit", tenant)
	e.RetryAfter = retryAfter
	e.Params = map[string]string{"tenant": tenant}
	writeError(w, e)
	return false
}

func (s *Server) handleSynthesize(w http.ResponseWriter, r *http.Request) {
	if !requirePost(w, r) || !s.admit(w, r, 1) {
		return
	}
	var req Request
	if serr := decodeRequest(w, r, &req); serr != nil {
		writeError(w, serr)
		return
	}
	resp, err := s.Do(r.Context(), &req)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleJobSubmit accepts POST /v1/jobs: the async twin of /v1/synthesize,
// answering 202 with the queued job's status envelope.
func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	if !requirePost(w, r) || !s.admit(w, r, 1) {
		return
	}
	var req Request
	if serr := decodeRequest(w, r, &req); serr != nil {
		writeError(w, serr)
		return
	}
	id, serr := s.Submit(r.Context(), &req)
	if serr != nil {
		writeError(w, serr)
		return
	}
	w.Header().Set("Location", "/v1/jobs/"+id)
	status, jerr := s.JobStatus(id)
	if jerr != nil {
		// Possible only if the result's TTL elapsed between Submit and
		// here; answer the submission anyway.
		writeJSON(w, http.StatusAccepted, &JobStatus{ID: id, State: stsynapi.JobQueued})
		return
	}
	writeJSON(w, http.StatusAccepted, status)
}

// handleJob serves GET and DELETE on /v1/jobs/{id}.
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	id := strings.TrimPrefix(r.URL.Path, "/v1/jobs/")
	if id == "" || strings.Contains(id, "/") {
		writeError(w, stsynerr.Newf(stsynerr.JobNotFound, "no job %q", id))
		return
	}
	switch r.Method {
	case http.MethodGet:
		status, serr := s.JobStatus(id)
		if serr != nil {
			writeError(w, serr)
			return
		}
		writeJSON(w, http.StatusOK, status)
	case http.MethodDelete:
		status, serr := s.CancelJob(id)
		if serr != nil {
			writeError(w, serr)
			return
		}
		writeJSON(w, http.StatusOK, status)
	default:
		w.Header().Set("Allow", "GET, DELETE")
		writeError(w, stsynerr.New(stsynerr.MethodNotAllowed, "GET or DELETE only"))
	}
}

// handleBatch accepts POST /v1/batch, charging admission for every
// request the batch carries.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	if !requirePost(w, r) {
		return
	}
	var breq BatchRequest
	if serr := decodeRequest(w, r, &breq); serr != nil {
		writeError(w, serr)
		return
	}
	if !s.admit(w, r, len(breq.Requests)) {
		return
	}
	resp, serr := s.Batch(r.Context(), &breq)
	if serr != nil {
		writeError(w, serr)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleProtocols(w http.ResponseWriter, r *http.Request) {
	names := strings.Split(cli.Names, ", ")
	writeJSON(w, http.StatusOK, map[string][]string{"protocols": names})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		writeError(w, stsynerr.New(stsynerr.ShuttingDown, "shutting down"))
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	entries, bytes := s.cache.stats()
	jc := s.JobCounts()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.metrics.WritePrometheus(w, map[string]float64{
		"stsyn_queue_depth":                  float64(s.QueueDepth()),
		"stsyn_cache_entries":                float64(entries),
		"stsyn_cache_bytes":                  float64(bytes),
		"stsyn_retry_after_hint_seconds":     float64(s.retryAfterHint()),
		"stsyn_async_jobs_queued":            float64(jc.Queued),
		"stsyn_async_jobs_running":           float64(jc.Running),
		"stsyn_async_jobs_done":              float64(jc.Done),
		"stsyn_async_jobs_failed":            float64(jc.Failed),
		"stsyn_async_jobs_terminal_canceled": float64(jc.Canceled),
		"stsyn_async_jobs_evicted":           float64(jc.Evictions),
	})
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // nothing to do about a broken client pipe
}
