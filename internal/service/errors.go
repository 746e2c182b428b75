package service

import (
	"errors"
	"net/http"
	"strconv"

	"stsyn/pkg/stsynerr"
)

// Error is the service's failure type: an alias of the published typed
// error contract (pkg/stsynerr), so every error the server constructs is
// already in the shape clients decode. Retrieve it from any Server error
// with errors.As and branch on its Name.
type Error = stsynerr.Error

// StatusClientClosed is the (conventional, nginx-originated) status for
// requests whose client went away before the job finished.
const StatusClientClosed = stsynerr.StatusClientClosed

// asServiceError passes through an error that already carries the typed
// contract and wraps any other in the given registered name and message.
func asServiceError(err error, name stsynerr.Name, msg string) *Error {
	var se *Error
	if errors.As(err, &se) {
		return se
	}
	return stsynerr.Wrap(name, msg, err)
}

// writeError maps a service error to its HTTP status and the one JSON
// error envelope of the contract, stamping the request's correlation ID
// (already echoed on the response header by the request-ID middleware).
// Every 503 and 429 response carries retry advice, 1 s unless the error
// names another, both as the Retry-After header and in the envelope.
func writeError(w http.ResponseWriter, err error) {
	var se *Error
	if !errors.As(err, &se) {
		se = stsynerr.Wrap(stsynerr.Internal, "internal error", err)
	}
	status := se.HTTPStatus()
	env := se.Envelope()
	if status == http.StatusServiceUnavailable || status == http.StatusTooManyRequests {
		if env.RetryAfterSeconds <= 0 {
			env.RetryAfterSeconds = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(env.RetryAfterSeconds))
	}
	if env.RequestID == "" {
		env.RequestID = w.Header().Get(RequestIDHeader)
	}
	writeJSON(w, status, env)
}
