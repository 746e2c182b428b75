package service

import (
	"errors"
	"strings"
	"testing"

	"stsyn/internal/cli"
	"stsyn/internal/core"
	"stsyn/internal/explicit"
	"stsyn/internal/gcl"
	"stsyn/internal/protocols"
	"stsyn/pkg/stsynerr"
)

func TestNormalizeDefaults(t *testing.T) {
	sp := protocols.TokenRing(4, 3)
	j, err := Normalize(&Request{Protocol: "tokenring"}, sp)
	if err != nil {
		t.Fatal(err)
	}
	if j.Engine != "explicit" {
		t.Errorf("engine = %q, want explicit for 81 states", j.Engine)
	}
	if j.Convergence != core.Strong || j.Resolution != core.BatchResolution {
		t.Error("defaults not strong/batch")
	}
	if want := []int{1, 2, 3, 0}; len(j.Schedule) != 4 || j.Schedule[0] != want[0] || j.Schedule[3] != want[3] {
		t.Errorf("schedule = %v, want the paper's default %v", j.Schedule, want)
	}
}

func TestNormalizeAutoMatchesExplicitKey(t *testing.T) {
	sp := protocols.TokenRing(4, 3)
	auto, err := Normalize(&Request{Protocol: "tokenring", Engine: "auto"}, sp)
	if err != nil {
		t.Fatal(err)
	}
	exp, err := Normalize(&Request{Protocol: "tokenring", Engine: "explicit"}, sp)
	if err != nil {
		t.Fatal(err)
	}
	if auto.Key != exp.Key {
		t.Error("auto-resolved engine and explicit engine produce different cache keys")
	}
	sym, err := Normalize(&Request{Protocol: "tokenring", Engine: "symbolic"}, sp)
	if err != nil {
		t.Fatal(err)
	}
	if sym.Key == exp.Key {
		t.Error("different engines must not share a cache key (their statistics differ)")
	}
}

// The key is content-addressed: the same protocol via built-in or inline
// spec text hashes by structure, the spec's display name is irrelevant, and
// any result-affecting option changes the key.
func TestCanonicalKeyProperties(t *testing.T) {
	base := func() *Request { return &Request{Protocol: "tokenring", K: 4, Dom: 3} }
	key := func(req *Request) string {
		sp, err := BuildSpec(req)
		if err != nil {
			t.Fatal(err)
		}
		j, err := Normalize(req, sp)
		if err != nil {
			t.Fatal(err)
		}
		return j.Key
	}

	k0 := key(base())
	if k0 != key(base()) {
		t.Fatal("key not deterministic")
	}
	if k0 == key(&Request{Protocol: "tokenring", K: 5, Dom: 3}) {
		t.Error("different process count, same key")
	}
	if k0 == key(&Request{Protocol: "tokenring", K: 4, Dom: 4}) {
		t.Error("different domain, same key")
	}
	for _, req := range []*Request{
		{Protocol: "tokenring", Convergence: "weak"},
		{Protocol: "tokenring", Resolution: "incremental"},
		{Protocol: "tokenring", Schedule: []int{0, 1, 2, 3}},
		{Protocol: "tokenring", Fanout: true},
	} {
		if key(req) == k0 {
			t.Errorf("option %+v did not change the key", req)
		}
	}
	// Spelling the defaults out changes nothing.
	if key(&Request{Protocol: "tokenring", Convergence: "strong", Resolution: "batch",
		Schedule: []int{1, 2, 3, 0}}) != k0 {
		t.Error("explicit defaults changed the key")
	}

	// Same structure under a different protocol name: same key.
	a, err := gcl.Parse("a", "protocol A\nvar x0, x1 : 0..1\nprocess P0 reads x0, x1 writes x0 { x0 == x1 -> x0 := x0 + 1 }\nprocess P1 reads x0, x1 writes x1 { x0 != x1 -> x1 := x1 + 1 }\ninvariant x0 == x1\n")
	if err != nil {
		t.Fatal(err)
	}
	b, err := gcl.Parse("b", "protocol B\nvar x0, x1 : 0..1\nprocess P0 reads x0, x1 writes x0 { x0 == x1 -> x0 := x0 + 1 }\nprocess P1 reads x0, x1 writes x1 { x0 != x1 -> x1 := x1 + 1 }\ninvariant x0 == x1\n")
	if err != nil {
		t.Fatal(err)
	}
	ja, err := Normalize(&Request{}, a)
	if err != nil {
		t.Fatal(err)
	}
	jb, err := Normalize(&Request{}, b)
	if err != nil {
		t.Fatal(err)
	}
	if ja.Key != jb.Key {
		t.Error("protocol display name leaked into the content address")
	}
}

func TestBuildSpecValidation(t *testing.T) {
	for _, req := range []*Request{
		{},
		{Protocol: "tokenring", Spec: "protocol X"},
		{Protocol: "does-not-exist"},
		{Spec: "not a spec"},
	} {
		if _, err := BuildSpec(req); err == nil {
			t.Errorf("BuildSpec(%+v) succeeded, want error", req)
		}
	}
}

// TestBuildSpecParameterGrid drives every built-in through the service's
// BuildSpec over k and dom from -1 to 3: parameters in range build a valid
// spec, and parameters out of range answer a typed InvalidSpec instead of
// panicking in the protocol constructor. Zero parameters take the
// request defaults (k 4, dom 3).
func TestBuildSpecParameterGrid(t *testing.T) {
	minK := map[string]int{"tokenring": 2, "dijkstra": 2, "dijkstra3": 3, "matching": 3, "gouda-acharya": 3, "coloring": 3}
	minDom := map[string]int{"tokenring": 2, "dijkstra": 2}
	for _, name := range strings.Split(cli.Names, ", ") {
		for k := -1; k <= 3; k++ {
			for dom := -1; dom <= 3; dom++ {
				effK, effDom := k, dom
				if effK == 0 {
					effK = 4
				}
				if effDom == 0 {
					effDom = 3
				}
				valid := inRange(minK, name, effK) && inRange(minDom, name, effDom)
				sp, err := BuildSpec(&Request{Protocol: name, K: k, Dom: dom})
				if !valid {
					var se *stsynerr.Error
					if !errors.As(err, &se) || se.Name != stsynerr.InvalidSpec {
						t.Errorf("%s k=%d dom=%d: got %v, want a typed InvalidSpec", name, k, dom, err)
					}
					continue
				}
				if err != nil {
					t.Errorf("%s k=%d dom=%d: %v", name, k, dom, err)
					continue
				}
				if err := sp.Validate(); err != nil {
					t.Errorf("%s k=%d dom=%d: invalid spec: %v", name, k, dom, err)
				}
			}
		}
	}
}

// inRange reports whether v meets name's minimum in min; a built-in
// missing from min does not take that parameter.
func inRange(min map[string]int, name string, v int) bool {
	m, takes := min[name]
	return !takes || v >= m
}

// EncodeResult output must agree with what the synthesizer reported and
// render the protocol's guarded commands.
func TestEncodeResult(t *testing.T) {
	sp := protocols.TokenRing(4, 3)
	e, err := explicit.New(sp, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.AddConvergence(e, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	j, err := Normalize(&Request{Protocol: "tokenring"}, sp)
	if err != nil {
		t.Fatal(err)
	}
	out := EncodeResult(e, res, j, true)
	if out.Protocol != sp.Name || out.States != 81 || out.Processes != 4 {
		t.Errorf("header wrong: %+v", out)
	}
	if out.Pass != res.PassCompleted || out.AddedGroups != len(res.Added) {
		t.Error("synthesis stats wrong")
	}
	if out.ProgramSize != res.ProgramSize {
		t.Error("program size wrong")
	}
	if len(out.Actions) != 4 {
		t.Fatalf("%d processes rendered, want 4", len(out.Actions))
	}
	var all []string
	for _, p := range out.Actions {
		for _, c := range p.Commands {
			all = append(all, c.Guard+" -> "+c.Effect)
		}
	}
	joined := strings.Join(all, "\n")
	if !strings.Contains(joined, "x0 := x3 + 1") {
		t.Errorf("rendered commands lack P0's increment:\n%s", joined)
	}
}

// The retired scc and workers request fields are accepted and ignored:
// any value, on either engine, normalizes to the job and cache key of the
// request without them.
func TestNormalizeSCCAndWorkers(t *testing.T) {
	sp := protocols.TokenRing(4, 3)
	for _, engine := range []string{"explicit", "symbolic"} {
		base, err := Normalize(&Request{Protocol: "tokenring", Engine: engine}, sp)
		if err != nil {
			t.Fatal(err)
		}
		for _, req := range []*Request{
			{Protocol: "tokenring", Engine: engine, SCC: "fb", Workers: 2},
			{Protocol: "tokenring", Engine: engine, SCC: "kosaraju"},
			{Protocol: "tokenring", Engine: engine, Workers: -1},
		} {
			j, err := Normalize(req, sp)
			if err != nil {
				t.Fatalf("Normalize(%+v): %v", req, err)
			}
			if j.Key != base.Key {
				t.Errorf("Normalize(%+v): scc/workers changed the cache key", req)
			}
		}
	}
}
