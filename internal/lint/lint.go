// Package lint is a stdlib-only static-analysis framework for this
// repository, plus the project-specific analyzers that mechanize the
// invariants the codebase rests on: byte-reproducibility of the synthesis
// core, context propagation through the engine loops, the
// dependency-direction rules, goroutine joins and lock discipline, and
// panic-freedom of the request-handling tiers.
//
// The framework deliberately uses nothing beyond go/parser, go/ast and
// go/types (go.mod stays dependency-free). Each analyzer runs as one
// per-package pass over type-checked syntax; findings are reported as
// "file:line:col: analyzer: message".
//
// Intentional violations are silenced in place with
//
//	//lint:ignore <analyzer>[,<analyzer>...] <reason>
//
// either trailing the offending line or on the line directly above it, or
// for a whole file with //lint:file-ignore at the top of the file. A
// directive without a reason is itself a finding (analyzer "lint"), so
// every suppression is explained.
package lint

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"io"
	"sort"
	"strings"
)

// Finding is one analyzer diagnostic.
type Finding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", f.File, f.Line, f.Col, f.Analyzer, f.Message)
}

// Analyzer is one named pass. Run inspects the package behind the Pass and
// reports findings via Pass.Reportf.
type Analyzer struct {
	Name string
	Doc  string
	// NeedsTypes marks analyzers that require a type-checked package;
	// syntax-only analyzers also run on packages that were loaded without
	// type information (and on test files, see Pass.TestFiles).
	NeedsTypes bool
	Run        func(*Pass)
}

// All lists every analyzer stsyn-vet runs, in reporting order.
var All = []*Analyzer{APIStab, ArchDeps, CtxFlow, Determinism, GoroLeak, LockSafe, MetricNames, PanicSafe}

// Pass carries one analyzer's view of one package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	ModPath  string // module path, e.g. "stsyn"
	PkgPath  string // import path of the package under analysis
	Files    []*ast.File
	// TestFiles are the package's _test.go files, parsed but never
	// type-checked; only syntax-only analyzers may inspect them.
	TestFiles []*ast.File
	Pkg       *types.Package // nil unless Analyzer.NeedsTypes
	Info      *types.Info    // nil unless Analyzer.NeedsTypes

	// Root is the module root directory; APIDir and ChangelogPath locate
	// the committed API goldens and the changelog the apistab analyzer
	// couples them to.
	Root          string
	APIDir        string
	ChangelogPath string

	findings *[]Finding
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	position := p.Fset.Position(pos)
	*p.findings = append(*p.findings, Finding{
		File:     position.Filename,
		Line:     position.Line,
		Col:      position.Column,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// RelPath is the package path relative to the module root: "" for the root
// package, "internal/bdd" for stsyn/internal/bdd. Analyzers scope
// themselves with it so the rules survive a module rename.
func (p *Pass) RelPath() string {
	if p.PkgPath == p.ModPath {
		return ""
	}
	return strings.TrimPrefix(p.PkgPath, p.ModPath+"/")
}

// Check runs the given analyzers over pkg, applies the ignore directives,
// and returns the surviving findings sorted by position. Analyzers that
// need type information are skipped when the package was loaded without it.
// An ignore directive that no analyzer in the run needed — its analyzer ran
// but fired nothing on that line — is itself reported as a stale
// suppression (pseudo-analyzer "lint", unignorable), so annotations cannot
// outlive the code they excused.
func (r *Runner) Check(pkg *Package, analyzers []*Analyzer) []Finding {
	var raw []Finding
	for _, a := range analyzers {
		if a.NeedsTypes && pkg.Pkg == nil {
			continue
		}
		pass := &Pass{
			Analyzer:      a,
			Fset:          r.Fset,
			ModPath:       r.ModPath,
			PkgPath:       pkg.PkgPath,
			Files:         pkg.Files,
			TestFiles:     pkg.TestFiles,
			Pkg:           pkg.Pkg,
			Info:          pkg.Info,
			Root:          r.Root,
			APIDir:        r.APIDir,
			ChangelogPath: r.ChangelogPath,
			findings:      &raw,
		}
		a.Run(pass)
	}
	dir, malformed := parseDirectives(r.Fset, pkg.Files, pkg.TestFiles)
	out := malformed
	for _, f := range raw {
		if dir.ignored(f) {
			continue
		}
		out = append(out, f)
	}
	out = append(out, staleDirectives(dir, analyzers, pkg.Pkg != nil)...)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Analyzer < b.Analyzer
	})
	return out
}

// --- ignore directives ----------------------------------------------------

const (
	ignorePrefix     = "//lint:ignore"
	fileIgnorePrefix = "//lint:file-ignore"
)

// directive is one parsed //lint:ignore or //lint:file-ignore comment.
// used tracks, per analyzer name, whether the directive suppressed at
// least one raw finding in this run — an unused directive is stale.
type directive struct {
	file     string
	line     int
	col      int
	names    []string
	fromTest bool
	used     map[string]bool
}

func (d *directive) matches(analyzer string) bool {
	for _, name := range d.names {
		if name == analyzer {
			return true
		}
	}
	return false
}

type directiveSet struct {
	// byLine[file][line] lists the directives silencing that line.
	byLine map[string]map[int][]*directive
	// byFile[file] lists the directives silencing the whole file.
	byFile map[string][]*directive
	all    []*directive
}

func (d *directiveSet) ignored(f Finding) bool {
	for _, dir := range d.byFile[f.File] {
		if dir.matches(f.Analyzer) {
			dir.used[f.Analyzer] = true
			return true
		}
	}
	lines := d.byLine[f.File]
	for _, line := range []int{f.Line, f.Line - 1} {
		for _, dir := range lines[line] {
			if dir.matches(f.Analyzer) {
				dir.used[f.Analyzer] = true
				return true
			}
		}
	}
	return false
}

// parseDirectives extracts //lint:ignore and //lint:file-ignore directives
// from the files' comments. Directives missing an analyzer name or a reason
// are returned as findings of the pseudo-analyzer "lint"; those findings
// cannot themselves be ignored.
func parseDirectives(fset *token.FileSet, files, testFiles []*ast.File) (*directiveSet, []Finding) {
	d := &directiveSet{
		byLine: make(map[string]map[int][]*directive),
		byFile: make(map[string][]*directive),
	}
	var malformed []Finding
	collect := func(files []*ast.File, fromTest bool) {
		for _, f := range files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					text := c.Text
					var isFile bool
					switch {
					case strings.HasPrefix(text, fileIgnorePrefix):
						text, isFile = text[len(fileIgnorePrefix):], true
					case strings.HasPrefix(text, ignorePrefix):
						text = text[len(ignorePrefix):]
					default:
						continue
					}
					pos := fset.Position(c.Pos())
					fields := strings.Fields(text)
					if len(fields) < 2 {
						malformed = append(malformed, Finding{
							File: pos.Filename, Line: pos.Line, Col: pos.Column,
							Analyzer: "lint",
							Message:  "malformed ignore directive: want //lint:ignore <analyzer>[,<analyzer>] <reason>",
						})
						continue
					}
					dir := &directive{
						file:     pos.Filename,
						line:     pos.Line,
						col:      pos.Column,
						names:    strings.Split(fields[0], ","),
						fromTest: fromTest,
						used:     make(map[string]bool),
					}
					d.all = append(d.all, dir)
					if isFile {
						d.byFile[pos.Filename] = append(d.byFile[pos.Filename], dir)
						continue
					}
					if d.byLine[pos.Filename] == nil {
						d.byLine[pos.Filename] = make(map[int][]*directive)
					}
					d.byLine[pos.Filename][pos.Line] = append(d.byLine[pos.Filename][pos.Line], dir)
				}
			}
		}
	}
	collect(files, false)
	collect(testFiles, true)
	return d, malformed
}

// staleDirectives reports directives that name an analyzer which ran in
// this Check but suppressed nothing: the code they excused has changed, so
// the suppression must go. Names outside the run's analyzer list are left
// alone (a partial run cannot judge them), as are typed analyzers named
// from test files (those files are never type-checked, so the analyzer
// never sees them).
func staleDirectives(d *directiveSet, analyzers []*Analyzer, typed bool) []Finding {
	ran := make(map[string]bool)
	ranSyntax := make(map[string]bool)
	for _, a := range analyzers {
		if a.NeedsTypes && !typed {
			continue
		}
		ran[a.Name] = true
		if !a.NeedsTypes {
			ranSyntax[a.Name] = true
		}
	}
	var out []Finding
	for _, dir := range d.all {
		for _, name := range dir.names {
			applicable := ran[name]
			if dir.fromTest {
				applicable = ranSyntax[name]
			}
			if !applicable || dir.used[name] {
				continue
			}
			out = append(out, Finding{
				File: dir.file, Line: dir.line, Col: dir.col,
				Analyzer: "lint",
				Message:  fmt.Sprintf("stale ignore directive: %s no longer fires here; delete the suppression", name),
			})
		}
	}
	return out
}

// --- tool output ----------------------------------------------------------

// EncodeJSON writes findings as an indented JSON array — never null, so
// consumers can index unconditionally. This is the `stsyn-vet -json` wire
// format CI archives as an artifact; the golden test pins it.
func EncodeJSON(w io.Writer, findings []Finding) error {
	if findings == nil {
		findings = []Finding{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(findings)
}

// ExitCode maps a vet run's outcome to the process exit status: 2 when the
// load or analysis itself failed, 1 when findings survived the directives,
// 0 when clean.
func ExitCode(findings []Finding, err error) int {
	switch {
	case err != nil:
		return 2
	case len(findings) > 0:
		return 1
	default:
		return 0
	}
}

// pathInScope reports whether the module-relative package path rel is one
// of the scope prefixes or nested under one.
func pathInScope(rel string, scopes []string) bool {
	for _, s := range scopes {
		if rel == s || strings.HasPrefix(rel, s+"/") {
			return true
		}
	}
	return false
}

// --- shared AST / type helpers -------------------------------------------

// inspectWithStack walks root calling f with each node and its ancestors
// (outermost first). Returning false skips the node's children.
func inspectWithStack(root ast.Node, f func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if !f(n, stack) {
			return false
		}
		stack = append(stack, n)
		return true
	})
}

// objectOf resolves an identifier to its object, whether the identifier
// defines it or uses it.
func (p *Pass) objectOf(id *ast.Ident) types.Object {
	if p.Info == nil {
		return nil
	}
	if obj := p.Info.Uses[id]; obj != nil {
		return obj
	}
	return p.Info.Defs[id]
}

// typeOf is Info.TypeOf tolerating a nil Info.
func (p *Pass) typeOf(e ast.Expr) types.Type {
	if p.Info == nil {
		return nil
	}
	return p.Info.TypeOf(e)
}

// calleeObject resolves the function or method object a call invokes, or
// nil for calls through function values, conversions and builtins.
func (p *Pass) calleeObject(call *ast.CallExpr) types.Object {
	if p.Info == nil {
		return nil
	}
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return p.Info.Uses[fun]
	case *ast.SelectorExpr:
		if sel, ok := p.Info.Selections[fun]; ok {
			return sel.Obj()
		}
		return p.Info.Uses[fun.Sel]
	}
	return nil
}

// calleeIs reports whether call invokes a function or method named name
// that is declared in package pkgPath.
func (p *Pass) calleeIs(call *ast.CallExpr, pkgPath, name string) bool {
	obj := p.calleeObject(call)
	return obj != nil && obj.Name() == name && obj.Pkg() != nil && obj.Pkg().Path() == pkgPath
}

// isNamedType reports whether t is the named type pkgPath.name.
func isNamedType(t types.Type, pkgPath, name string) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == name && obj.Pkg() != nil && obj.Pkg().Path() == pkgPath
}
