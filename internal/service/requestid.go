package service

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"net/http"

	"stsyn/pkg/stsynapi"
)

// RequestIDHeader is the header that carries a request's correlation ID
// (re-exported from the wire contract). The coordinator stamps one ID per
// logical request and reuses it across retries, so a worker's logs can be
// joined to the coordinator's.
const RequestIDHeader = stsynapi.RequestIDHeader

type requestIDKey struct{}

// WithRequestID returns ctx carrying the given correlation ID.
func WithRequestID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, requestIDKey{}, id)
}

// RequestID returns the correlation ID carried by ctx, or "".
func RequestID(ctx context.Context) string {
	id, _ := ctx.Value(requestIDKey{}).(string)
	return id
}

// NewRequestID returns a fresh 16-hex-digit correlation ID.
func NewRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "0000000000000000"
	}
	return hex.EncodeToString(b[:])
}

// maxRequestIDLen caps what we echo back, so a hostile header cannot bloat
// responses or logs.
const maxRequestIDLen = 128

// withRequestID ensures every request has a correlation ID: the inbound
// header when present (truncated to a sane length), a fresh one otherwise.
// The ID is echoed on the response before the handler runs — so error
// bodies written by writeError can read it back from the header — and is
// available to handlers via RequestID(r.Context()).
func withRequestID(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get(RequestIDHeader)
		if id == "" {
			id = NewRequestID()
		} else if len(id) > maxRequestIDLen {
			id = id[:maxRequestIDLen]
		}
		w.Header().Set(RequestIDHeader, id)
		next.ServeHTTP(w, r.WithContext(WithRequestID(r.Context(), id)))
	})
}
