package lint

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// newTestRunner builds one Runner per test; the expensive part of a load is
// type-checking standard-library imports, and the runner caches those, so
// fixture cases share it through t.Run subtests.
func newTestRunner(t *testing.T) *Runner {
	t.Helper()
	r, err := NewRunner(".")
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestFixtures runs each analyzer over a firing and a non-firing golden
// package under testdata/src, comparing the findings against the fixtures'
// trailing "// want <analyzer>" markers. Fixtures are checked under an
// import path chosen to land inside (or outside) the analyzer's scope.
func TestFixtures(t *testing.T) {
	r := newTestRunner(t)
	cases := []struct {
		dir       string
		asPath    string
		analyzer  *Analyzer
		needTypes bool
	}{
		{"determinism_bad", "stsyn/internal/core", Determinism, true},
		{"determinism_ok", "stsyn/internal/core", Determinism, true},
		{"ctxflow_bad", "stsyn/internal/fixture/ctxflow", CtxFlow, true},
		{"ctxflow_ok", "stsyn/internal/fixture/ctxflow", CtxFlow, true},
		{"ctxflow_cmd", "stsyn/cmd/fixture", CtxFlow, true},
		{"archdeps_bad", "stsyn/internal/bdd", ArchDeps, false},
		{"archdeps_ok", "stsyn/internal/protocol", ArchDeps, false},
		{"prunedeps_bad", "stsyn/internal/prune", ArchDeps, false},
		{"prunedeps_ok", "stsyn/internal/prune", ArchDeps, false},
		{"pkgdeps_bad", "stsyn/pkg/client", ArchDeps, false},
		{"pkgdeps_ok", "stsyn/pkg/client", ArchDeps, false},
		{"pkgleaf_bad", "stsyn/pkg/stsynerr", ArchDeps, false},
		{"panicsafe_bad", "stsyn/internal/service", PanicSafe, false},
		{"panicsafe_bad", "stsyn/pkg/client", PanicSafe, false},
		{"panicsafe_ok", "stsyn/internal/service", PanicSafe, false},
		{"ignore", "stsyn/internal/service/fixture", PanicSafe, false},
		{"ignore_stale", "stsyn/internal/service/fixture", PanicSafe, false},
		{"ctxflow_field", "stsyn/internal/core", CtxFlow, true},
		{"goroleak_bad", "stsyn/internal/service/fixture", GoroLeak, true},
		{"goroleak_ok", "stsyn/internal/service/fixture", GoroLeak, true},
		{"locksafe_bad", "stsyn/internal/service/fixture", LockSafe, true},
		{"locksafe_ok", "stsyn/internal/service/fixture", LockSafe, true},
		{"metricnames_bad", "stsyn/internal/service/fixture", MetricNames, false},
		{"metricnames_ok", "stsyn/internal/service/fixture", MetricNames, false},
	}
	for _, c := range cases {
		t.Run(c.dir, func(t *testing.T) {
			dir := filepath.Join("testdata", "src", c.dir)
			pkg, err := r.LoadDir(dir, c.asPath, c.needTypes)
			if err != nil {
				t.Fatal(err)
			}
			var got []string
			for _, f := range r.Check(pkg, []*Analyzer{c.analyzer}) {
				got = append(got, fmt.Sprintf("%s:%d: %s", f.File, f.Line, f.Analyzer))
			}
			want := wantMarkers(t, r, dir)
			sort.Strings(got)
			sort.Strings(want)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("findings mismatch\n got: %q\nwant: %q", got, want)
			}
		})
	}
}

// wantMarkers collects the fixture's expected findings: each trailing
// "// want <analyzer>..." comment expects one finding per listed analyzer
// on that line, keyed by the same module-relative display name the loader
// assigns.
func wantMarkers(t *testing.T, r *Runner, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		abs, err := filepath.Abs(path)
		if err != nil {
			t.Fatal(err)
		}
		rel, err := filepath.Rel(r.Root, abs)
		if err != nil {
			t.Fatal(err)
		}
		display := filepath.ToSlash(rel)
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(f)
		for line := 1; sc.Scan(); line++ {
			_, rest, ok := strings.Cut(sc.Text(), "// want ")
			if !ok {
				continue
			}
			for _, analyzer := range strings.Fields(rest) {
				want = append(want, fmt.Sprintf("%s:%d: %s", display, line, analyzer))
			}
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	return want
}

// TestMalformedDirective checks the escape hatch's escape hatch: a
// directive without a reason is itself reported (pseudo-analyzer "lint",
// which cannot be ignored) and suppresses nothing. Marker comments cannot
// sit on the directive's own line, hence the explicit expectations.
func TestMalformedDirective(t *testing.T) {
	r := newTestRunner(t)
	dir := filepath.Join("testdata", "src", "ignore_malformed")
	pkg, err := r.LoadDir(dir, "stsyn/internal/service/fixture", false)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, f := range r.Check(pkg, []*Analyzer{PanicSafe}) {
		got = append(got, f.Analyzer)
	}
	sort.Strings(got)
	if want := []string{"lint", "panicsafe"}; !reflect.DeepEqual(got, want) {
		t.Errorf("analyzers = %q, want %q", got, want)
	}
}

// TestAPIStab drives the golden/changelog coupling through a fixture
// surface: missing golden, current golden with a logged hash, drifted
// surface, and a regenerated golden whose hash never made it into the
// changelog.
func TestAPIStab(t *testing.T) {
	r := newTestRunner(t)
	pkg, err := r.LoadDir(filepath.Join("testdata", "src", "apistab"), "stsyn/pkg/client", true)
	if err != nil {
		t.Fatal(err)
	}
	surface := APISurface(pkg.Pkg)
	for _, fragment := range []string{"const Version", "func New", "type Config struct", "\tEndpoint string", "type Doer interface", "func (*Config) Reset", "type Alias = Config"} {
		if !strings.Contains(surface, fragment) {
			t.Errorf("surface is missing %q:\n%s", fragment, surface)
		}
	}
	for _, fragment := range []string{"secret", "internal"} {
		if strings.Contains(surface, fragment) {
			t.Errorf("surface leaks unexported %q:\n%s", fragment, surface)
		}
	}
	hash := APIHash(surface)
	golden := APIGoldenContent(pkg.PkgPath, surface)
	goldenName := APIGoldenName("pkg/client")

	check := func(t *testing.T, goldenContent, changelog string) []Finding {
		t.Helper()
		dir := t.TempDir()
		savedAPI, savedLog := r.APIDir, r.ChangelogPath
		defer func() { r.APIDir, r.ChangelogPath = savedAPI, savedLog }()
		r.APIDir = filepath.Join(dir, "api")
		r.ChangelogPath = filepath.Join(dir, "CHANGELOG.md")
		if goldenContent != "" {
			if err := os.MkdirAll(r.APIDir, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(r.APIDir, goldenName), []byte(goldenContent), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if changelog != "" {
			if err := os.WriteFile(r.ChangelogPath, []byte(changelog), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		return r.Check(pkg, []*Analyzer{APIStab})
	}
	expectOne := func(t *testing.T, findings []Finding, fragment string) {
		t.Helper()
		if len(findings) != 1 || !strings.Contains(findings[0].Message, fragment) {
			t.Errorf("findings = %v, want exactly one containing %q", findings, fragment)
		}
	}

	t.Run("missing golden", func(t *testing.T) {
		expectOne(t, check(t, "", ""), "no committed API golden")
	})
	t.Run("current golden, logged hash", func(t *testing.T) {
		if findings := check(t, golden, "## entry\n\nsurface hash "+hash+"\n"); len(findings) != 0 {
			t.Errorf("findings = %v, want none", findings)
		}
	})
	t.Run("surface drift", func(t *testing.T) {
		stale := APIGoldenContent(pkg.PkgPath, surface+"func Removed()\n")
		expectOne(t, check(t, stale, "surface hash "+hash+"\n"), "changed")
	})
	t.Run("unlogged hash", func(t *testing.T) {
		expectOne(t, check(t, golden, "## entry for some older hash\n"), "no entry mentioning surface hash")
	})
}

// TestJSONOutput pins the `stsyn-vet -json` wire format CI archives: an
// indented JSON array, never null, with stable field names.
func TestJSONOutput(t *testing.T) {
	var buf bytes.Buffer
	if err := EncodeJSON(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != "[]\n" {
		t.Errorf("empty findings = %q, want %q", got, "[]\n")
	}
	buf.Reset()
	findings := []Finding{{
		File:     "internal/service/handler.go",
		Line:     7,
		Col:      3,
		Analyzer: "panicsafe",
		Message:  "naked panic on the serving path",
	}}
	if err := EncodeJSON(&buf, findings); err != nil {
		t.Fatal(err)
	}
	want := `[
  {
    "file": "internal/service/handler.go",
    "line": 7,
    "col": 3,
    "analyzer": "panicsafe",
    "message": "naked panic on the serving path"
  }
]
`
	if got := buf.String(); got != want {
		t.Errorf("json output mismatch\n got: %s\nwant: %s", got, want)
	}
}

// TestExitCode pins the process contract: 2 on load errors, 1 on
// findings, 0 when clean — in that precedence order.
func TestExitCode(t *testing.T) {
	finding := []Finding{{Analyzer: "panicsafe"}}
	if got := ExitCode(nil, nil); got != 0 {
		t.Errorf("clean run = %d, want 0", got)
	}
	if got := ExitCode(finding, nil); got != 1 {
		t.Errorf("findings = %d, want 1", got)
	}
	if got := ExitCode(finding, errors.New("load failed")); got != 2 {
		t.Errorf("error = %d, want 2", got)
	}
}

// TestArchCheckWholeModule exercises the syntax-only whole-module walk
// behind the arch_test.go entry point: pattern expansion, canonical path
// mapping, and the dependency-direction analyzer over every real package.
func TestArchCheckWholeModule(t *testing.T) {
	findings, err := ArchCheck(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("%s", f.String())
	}
}

// TestRepoIsClean is the suite's own dogfood gate: every analyzer over
// every package of this module must report nothing. It duplicates the
// `stsyn-vet ./...` run that scripts/check.sh gates on, so a regression
// fails plain `go test ./...` too.
func TestRepoIsClean(t *testing.T) {
	if raceEnabled {
		t.Skip("source-mode type-checking of the whole module is too slow under the race detector; check.sh runs stsyn-vet directly")
	}
	if testing.Short() {
		t.Skip("whole-module analysis skipped in -short mode")
	}
	r := newTestRunner(t)
	dirs, err := r.PackageDirs("./...")
	if err != nil {
		t.Fatal(err)
	}
	for _, dir := range dirs {
		pkg, err := r.LoadPackage(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range r.Check(pkg, All) {
			t.Errorf("%s", f)
		}
	}
}
