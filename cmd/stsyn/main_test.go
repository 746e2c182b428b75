package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"stsyn/internal/service"
	"stsyn/pkg/stsynapi"
)

// The CLI and a stsyn-serve worker answer the same job identically: stsyn
// -json decodes to the service's response for the same request (timings
// aside), and options the service rejects are rejected by the CLI with the
// service's message.
func TestCLIMatchesService(t *testing.T) {
	srv := service.New(service.Config{Workers: 1})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})

	same := []struct {
		name string
		args []string
		req  service.Request
	}{
		{"tokenring-4-3-auto", []string{"-p", "tokenring", "-k", "4", "-dom", "3"},
			service.Request{Protocol: "tokenring", K: 4, Dom: 3}},
		{"coloring-5-symbolic", []string{"-p", "coloring", "-k", "5", "-engine", "symbolic"},
			service.Request{Protocol: "coloring", K: 5, Engine: "symbolic"}},
		{"matching-5-weak", []string{"-p", "matching", "-k", "5", "-weak"},
			service.Request{Protocol: "matching", K: 5, Convergence: "weak"}},
		{"tokenring-5-5-incremental", []string{"-p", "tokenring", "-k", "5", "-dom", "5", "-resolution", "incremental"},
			service.Request{Protocol: "tokenring", K: 5, Dom: 5, Resolution: "incremental"}},
		{"tokenring-4-3-fanout-prune", []string{"-p", "tokenring", "-k", "4", "-dom", "3", "-fanout", "-prune"},
			service.Request{Protocol: "tokenring", K: 4, Dom: 3, Fanout: true, Prune: true}},
	}
	for _, tc := range same {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(append(tc.args, "-json"), &stdout, &stderr); code != 0 {
				t.Fatalf("stsyn exited %d: %s", code, stderr.String())
			}
			var got stsynapi.Response
			if err := json.Unmarshal(stdout.Bytes(), &got); err != nil {
				t.Fatalf("decode CLI output: %v\n%s", err, stdout.String())
			}
			want, err := srv.Do(context.Background(), &tc.req)
			if err != nil {
				t.Fatalf("service: %v", err)
			}
			if tc.req.Engine == "symbolic" && got.BDD == nil {
				t.Error("symbolic CLI response has no bdd block")
			}
			w := *want
			for _, r := range []*stsynapi.Response{&got, &w} {
				r.Timings, r.ElapsedMS = stsynapi.Timings{}, 0
				if p := r.Prune; p != nil {
					// The memo counters of a fan-out are timings in
					// disguise: the parallel attempts race for the memo,
					// and the ones still running when the winner is known
					// are cancelled wherever they got to.
					cp := *p
					cp.MemoHits, cp.MemoMisses = 0, 0
					r.Prune = &cp
				}
			}
			if !reflect.DeepEqual(got, w) {
				gj, _ := json.MarshalIndent(got, "", "  ")
				wj, _ := json.MarshalIndent(w, "", "  ")
				t.Errorf("CLI and service answers differ\nCLI:\n%s\nservice:\n%s", gj, wj)
			}
		})
	}

	rejected := []struct {
		name string
		args []string
		req  service.Request
	}{
		{"unknown-engine", []string{"-p", "tokenring", "-engine", "Quantum"},
			service.Request{Protocol: "tokenring", Engine: "Quantum"}},
		{"prune-incremental", []string{"-p", "tokenring", "-prune", "-resolution", "incremental"},
			service.Request{Protocol: "tokenring", Prune: true, Resolution: "incremental"}},
		{"fanout-schedule", []string{"-p", "tokenring", "-fanout", "-schedule", "1,2,3,0"},
			service.Request{Protocol: "tokenring", Fanout: true, Schedule: []int{1, 2, 3, 0}}},
	}
	for _, tc := range rejected {
		t.Run(tc.name, func(t *testing.T) {
			_, err := srv.Do(context.Background(), &tc.req)
			var se *service.Error
			if !errors.As(err, &se) || se.Err == nil {
				t.Fatalf("service accepted the request or gave no cause: %v", err)
			}
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code == 0 {
				t.Fatalf("stsyn accepted %v:\n%s", tc.args, stdout.String())
			}
			if msg := se.Err.Error(); !strings.Contains(stderr.String(), msg) {
				t.Errorf("stsyn stderr %q lacks the service's message %q", stderr.String(), msg)
			}
		})
	}
}
