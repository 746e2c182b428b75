// Command stsyn-vet runs the repository's custom static analyzers: the
// project-specific correctness invariants (goroutine join discipline,
// lock/blocking separation, determinism of the synthesis core, context
// propagation, dependency direction, panic-freedom of the serving path,
// metric naming, and the pinned public-API surface) as a gating check
// rather than reviewer folklore.
//
// Usage:
//
//	stsyn-vet [-json] [-list] [-write-api] [packages]
//
// Packages default to ./... relative to the enclosing module. Findings are
// printed as "file:line:col: analyzer: message" (or a JSON array with
// -json) and the exit status is 1 when any finding survives the
// //lint:ignore directives, 2 on load errors, 0 when clean.
//
// -write-api regenerates the committed api/ goldens that pin the exported
// surface of the published pkg/ packages; the printed surface hashes must
// be recorded in CHANGELOG.md for the apistab analyzer to pass.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"stsyn/internal/lint"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit findings as a JSON array")
	list := flag.Bool("list", false, "list the analyzers and exit")
	writeAPI := flag.Bool("write-api", false, "regenerate the api/ surface goldens and exit")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: stsyn-vet [-json] [-list] [-write-api] [packages]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, a := range lint.All {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}
	if *writeAPI {
		if err := writeGoldens(); err != nil {
			fmt.Fprintf(os.Stderr, "stsyn-vet: %v\n", err)
			os.Exit(2)
		}
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	findings, err := run(patterns)
	if err != nil {
		fmt.Fprintf(os.Stderr, "stsyn-vet: %v\n", err)
	}
	if *jsonOut {
		if err := lint.EncodeJSON(os.Stdout, findings); err != nil {
			fmt.Fprintf(os.Stderr, "stsyn-vet: %v\n", err)
			os.Exit(2)
		}
	} else {
		for _, f := range findings {
			fmt.Println(f)
		}
	}
	os.Exit(lint.ExitCode(findings, err))
}

func run(patterns []string) ([]lint.Finding, error) {
	cwd, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	r, err := lint.NewRunner(cwd)
	if err != nil {
		return nil, err
	}
	seen := make(map[string]bool)
	var findings []lint.Finding
	for _, pattern := range patterns {
		dirs, err := r.PackageDirs(pattern)
		if err != nil {
			return nil, err
		}
		for _, dir := range dirs {
			if seen[dir] {
				continue
			}
			seen[dir] = true
			pkg, err := r.LoadPackage(dir)
			if err != nil {
				return nil, err
			}
			findings = append(findings, r.Check(pkg, lint.All)...)
		}
	}
	return findings, nil
}

// writeGoldens regenerates the api/ goldens for every package in the
// apistab scope and prints each surface hash for the CHANGELOG.md entry.
func writeGoldens() error {
	cwd, err := os.Getwd()
	if err != nil {
		return err
	}
	r, err := lint.NewRunner(cwd)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(r.APIDir, 0o755); err != nil {
		return err
	}
	for _, rel := range lint.APIScope {
		pkg, err := r.LoadPackage(filepath.Join(r.Root, filepath.FromSlash(rel)))
		if err != nil {
			return err
		}
		surface := lint.APISurface(pkg.Pkg)
		name := lint.APIGoldenName(rel)
		content := lint.APIGoldenContent(pkg.PkgPath, surface)
		if err := os.WriteFile(filepath.Join(r.APIDir, name), []byte(content), 0o644); err != nil {
			return err
		}
		fmt.Printf("api/%s %s\n", name, lint.APIHash(surface))
	}
	return nil
}
