package client

import (
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"stsyn/pkg/stsynerr"
)

// Error is one failed interaction with the service: a transport failure
// (Status 0) or an error response. For error responses Err is the decoded
// *stsynerr.Error, so both layers match structurally:
//
//	var ce *client.Error   // where did it fail, is it retryable
//	var se *stsynerr.Error // which registered error is it
//	errors.As(err, &ce); errors.As(err, &se)
type Error struct {
	// Endpoint is the base URL of the endpoint that answered (or failed).
	Endpoint string
	// Status is the HTTP status, 0 for transport failures.
	Status int
	// RetryAfter is the response's parsed Retry-After advice, 0 if absent.
	RetryAfter time.Duration
	// Err is the cause: the decoded *stsynerr.Error for service error
	// responses, the transport error otherwise.
	Err error
}

// responseError builds the Error for an answer the caller did not want:
// the endpoint, the status, the decoded error envelope, and the
// Retry-After advice — the header's, else the envelope's
// retry_after_seconds (stsyn-serve sends the header on every 429 and 503,
// and the envelope field too when it has a hint).
func responseError(endpoint string, resp *http.Response, raw []byte) *Error {
	serr := stsynerr.Decode(resp.StatusCode, raw)
	secs, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || secs <= 0 {
		secs = serr.RetryAfter
	}
	ce := &Error{Endpoint: endpoint, Status: resp.StatusCode, Err: serr}
	if secs > 0 {
		ce.RetryAfter = time.Duration(secs) * time.Second
	}
	return ce
}

func (e *Error) Error() string {
	if e.Status == 0 {
		return fmt.Sprintf("endpoint %s: %v", e.Endpoint, e.Err)
	}
	return fmt.Sprintf("endpoint %s: HTTP %d: %v", e.Endpoint, e.Status, e.Err)
}

func (e *Error) Unwrap() error { return e.Err }

// Temporary reports whether retrying (elsewhere) could help: transport
// failures and 429/5xx are retryable, other statuses are not — the
// request itself is wrong and every endpoint will agree.
func (e *Error) Temporary() bool {
	return e.Status == 0 || e.Status == http.StatusTooManyRequests || e.Status >= 500
}

// IsTemporary reports whether err (or anything it wraps) is a *client.Error
// a retry could help with.
func IsTemporary(err error) bool {
	var ce *Error
	return errors.As(err, &ce) && ce.Temporary()
}
