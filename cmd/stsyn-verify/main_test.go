package main

import (
	"bytes"
	"strings"
	"testing"

	"stsyn/internal/cli"
	"stsyn/internal/protocols"
)

// An unknown -engine is an error with the shared engine-name message, in
// any letter case the rule does not accept; known names are
// case-insensitive.
func TestUnknownEngineRejected(t *testing.T) {
	_, want := cli.ResolveEngine("quantum", protocols.TokenRing(4, 3))
	if want == nil {
		t.Fatal("the engine-name rule accepts quantum")
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-p", "tokenring", "-engine", "quantum"}, &stdout, &stderr); code == 0 {
		t.Fatalf("stsyn-verify accepted -engine quantum:\n%s", stdout.String())
	}
	if !strings.Contains(stderr.String(), want.Error()) {
		t.Errorf("stderr %q lacks %q", stderr.String(), want.Error())
	}
	if stdout.Len() != 0 {
		t.Errorf("stdout not empty on a rejected engine:\n%s", stdout.String())
	}

	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"-p", "dijkstra", "-engine", "Symbolic"}, &stdout, &stderr); code != 0 {
		t.Fatalf("stsyn-verify -engine Symbolic exited %d: %s", code, stderr.String())
	}
}

// The exit status follows the verdict: Dijkstra's ring is strongly
// self-stabilizing, the Gouda-Acharya matching protocol is not (the
// paper's flaw).
func TestExitStatusFollowsVerdict(t *testing.T) {
	for _, tc := range []struct {
		args []string
		code int
		want string
	}{
		{[]string{"-p", "dijkstra", "-k", "4", "-dom", "3"}, 0, "all properties hold"},
		{[]string{"-p", "gouda-acharya", "-k", "5"}, 1, "properties violated"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, &stdout, &stderr); code != tc.code {
			t.Errorf("%v: exit %d, want %d (stderr %s)", tc.args, code, tc.code, stderr.String())
		}
		if !strings.Contains(stdout.String(), tc.want) {
			t.Errorf("%v: output lacks %q:\n%s", tc.args, tc.want, stdout.String())
		}
	}
}
