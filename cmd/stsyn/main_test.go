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

	"stsyn"
	"stsyn/internal/service"
	"stsyn/pkg/stsynapi"
)

// sameJobs are jobs the CLI (by its arguments) and the service (by the
// request) must answer identically.
var sameJobs = []struct {
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

	for _, tc := range sameJobs {
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

// In text mode the CLI prints the commands the service encoded instead of
// rendering the protocol again; they must read exactly as stsyn.Render of
// the same job's result.
func TestCLITextMatchesRender(t *testing.T) {
	for _, tc := range sameJobs {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code != 0 {
				t.Fatalf("stsyn exited %d: %s", code, stderr.String())
			}
			sp, err := service.BuildSpec(&tc.req)
			if err != nil {
				t.Fatal(err)
			}
			norm, err := service.Normalize(&tc.req, sp)
			if err != nil {
				t.Fatal(err)
			}
			out, err := service.Run(context.Background(), norm)
			if err != nil {
				t.Fatal(err)
			}
			want := stsyn.Render(out.Engine, out.Result.Protocol) + "\n"

			text := stdout.String()
			start, end := strings.Index(text, "\n\n"), strings.LastIndex(text, "verified: ")
			if start < 0 || end < start+2 {
				t.Fatalf("no protocol block in the CLI output:\n%s", text)
			}
			if got := text[start+2 : end]; got != want {
				t.Errorf("CLI text differs from stsyn.Render\nCLI:\n%s\nRender:\n%s", got, want)
			}
		})
	}
}

// Built-in parameters out of range are an ordinary error: run exits 1
// with the parameter rule's message instead of panicking in the protocol
// constructor.
func TestOutOfRangeParametersFail(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-p", "matching", "-k", "1"}, "requires k ≥ 3, got 1"},
		{[]string{"-p", "coloring", "-k", "0"}, "requires k ≥ 3, got 0"},
		{[]string{"-p", "tokenring", "-k", "3", "-dom", "1"}, "requires dom ≥ 2, got 1"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, &stdout, &stderr); code != 1 {
			t.Errorf("%v: exit code %d, want 1 (stderr %q)", tc.args, code, stderr.String())
		}
		if !strings.Contains(stderr.String(), tc.want) {
			t.Errorf("%v: stderr %q lacks %q", tc.args, stderr.String(), tc.want)
		}
	}
}
