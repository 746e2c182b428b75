package service

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"stsyn/pkg/client"
	"stsyn/pkg/stsynerr"
)

// pkg/client escapes job IDs: an ID holding '?' or '/' reaches handleJob
// as one path segment, with nothing split off into the query, and answers
// a typed JobNotFound naming the whole ID.
func TestClientEscapesJobIDs(t *testing.T) {
	svc := New(Config{})
	h := svc.Handler()
	var mu sync.Mutex
	var seen []string
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		seen = append(seen, r.URL.EscapedPath()+"?"+r.URL.RawQuery)
		mu.Unlock()
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := svc.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	c, err := client.New(client.Config{Endpoints: []string{ts.URL}})
	if err != nil {
		t.Fatal(err)
	}

	for _, id := range []string{"x?y", "a/b", "a/b?c=d"} {
		calls := map[string]func() error{
			"Job":       func() error { _, err := c.Job(context.Background(), id); return err },
			"CancelJob": func() error { _, err := c.CancelJob(context.Background(), id); return err },
		}
		for name, call := range calls {
			seen = nil
			err := call()
			var se *stsynerr.Error
			if !errors.As(err, &se) || se.Name != stsynerr.JobNotFound {
				t.Errorf("%s(%q) = %v, want %s", name, id, err, stsynerr.JobNotFound)
				continue
			}
			if !strings.Contains(se.Message, id) {
				t.Errorf("%s(%q): server saw another ID: %q", name, id, se.Message)
			}
			want := "/v1/jobs/" + strings.NewReplacer("?", "%3F", "/", "%2F").Replace(id) + "?"
			if len(seen) != 1 || seen[0] != want {
				t.Errorf("%s(%q): server saw %q, want %q", name, id, seen, want)
			}
		}
	}
}
