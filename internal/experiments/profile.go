package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
)

// BenchOpts configures the JSON engine ledgers (stsyn-bench -json):
// instance sizing, case selection and the per-case pprof capture behind
// scripts/profile.sh. The zero value is the full benchmark with no
// profiling.
type BenchOpts struct {
	// Quick shrinks the instances for CI smoke runs.
	Quick bool
	// Case keeps only case studies whose name contains this substring
	// (empty keeps all). Profiling runs want one case; regression checks
	// against a full baseline want them all.
	Case string
	// CPUDir, when non-empty, captures a CPU profile of the first rep of
	// every case into <dir>/<case>.cpu.pprof.
	CPUDir string
	// MemDir, when non-empty, writes an allocation profile after the first
	// rep of every case into <dir>/<case>.mem.pprof. Go's allocs profile
	// is cumulative over the process, so attribute sites with a single
	// -case; the per-case files still separate the capture points.
	MemDir string
}

// keep reports whether the case named name survives the Case filter.
func (o BenchOpts) keep(name string) bool {
	return o.Case == "" || strings.Contains(name, o.Case)
}

// startCPU begins a per-case CPU profile capture when enabled for this rep,
// and returns the stop function (a no-op when disabled). Profile I/O
// failures are diagnostics about diagnostics: they go to stderr and the
// benchmark carries on unprofiled.
func (o BenchOpts) startCPU(name string, firstRep bool) func() {
	if o.CPUDir == "" || !firstRep {
		return func() {}
	}
	f, err := os.Create(filepath.Join(o.CPUDir, name+".cpu.pprof"))
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: cpu profile:", err)
		return func() {}
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		fmt.Fprintln(os.Stderr, "bench: cpu profile:", err)
		f.Close()
		return func() {}
	}
	return func() {
		pprof.StopCPUProfile()
		f.Close()
	}
}

// writeMem writes the allocation profile after a case's rep when enabled
// for this rep.
func (o BenchOpts) writeMem(name string, firstRep bool) {
	if o.MemDir == "" || !firstRep {
		return
	}
	f, err := os.Create(filepath.Join(o.MemDir, name+".mem.pprof"))
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: mem profile:", err)
		return
	}
	defer f.Close()
	runtime.GC() // flush recently freed objects so inuse numbers are real
	if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
		fmt.Fprintln(os.Stderr, "bench: mem profile:", err)
	}
}
