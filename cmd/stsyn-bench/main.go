// Command stsyn-bench regenerates the tables and figures of the paper's
// evaluation (Section VII): per-figure sweeps of synthesis time and BDD
// space for maximal matching (Figures 6-7), three coloring (Figures 8-9)
// and the token ring with |D|=4 (Figures 10-11), plus the local-
// correctability summary (Figure 5 / Table 1).
//
// Usage:
//
//	stsyn-bench -fig table1
//	stsyn-bench -fig 6            # matching, K=5..11 (also emits Figure 7 data)
//	stsyn-bench -fig 8 -max 40    # coloring up to the paper's 40 processes
//	stsyn-bench -fig all -max 25  # everything, capped
//	stsyn-bench -fig 8 -csv       # machine-readable output
//
// It also generates the engine ledgers committed as BENCH_explicit.json
// and BENCH_symbolic.json (see scripts/bench.sh): one row per case study,
// the default engine's fastest of three runs with their spread, the host
// and the synthesized protocol's digest.
//
//	stsyn-bench -json                  # explicit engine ledger
//	stsyn-bench -json -engine symbolic # symbolic engine ledger
//	stsyn-bench -json -quick           # shrunk instances (CI smoke)
//
// The ledger cases double as profiling targets (see scripts/profile.sh):
// -case selects one case study by substring, and -cpuprofile/-memprofile
// capture per-case pprof files into a directory:
//
//	stsyn-bench -json -engine symbolic -case two-ring -cpuprofile /tmp/prof
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"stsyn/internal/core"
	"stsyn/internal/experiments"
	"stsyn/internal/explicit"
	"stsyn/internal/protocol"
	"stsyn/internal/protocols"
)

// scheduleRows sweeps every schedule over the small case studies.
func scheduleRows() []experiments.ScheduleRow {
	mk := func(name string, sp *protocol.Spec, scheds [][]int) experiments.ScheduleRow {
		row, err := experiments.ScheduleEffect(name,
			func() (core.Engine, error) { return explicit.New(sp, 0) }, scheds)
		if err != nil {
			fmt.Fprintln(os.Stderr, "stsyn-bench:", err)
			os.Exit(1)
		}
		return row
	}
	return []experiments.ScheduleRow{
		mk("token-ring-4-3", protocols.TokenRing(4, 3), core.AllSchedules(4)),
		mk("matching-5", protocols.Matching(5), core.AllSchedules(5)),
		mk("coloring-5", protocols.Coloring(5), core.AllSchedules(5)),
	}
}

func main() {
	var (
		fig     = flag.String("fig", "all", "figure to regenerate: 6, 7, 8, 9, 10, 11, table1, domain, schedule, prune, all")
		max     = flag.Int("max", 0, "largest process count (0 = the paper's full sweep)")
		csv     = flag.Bool("csv", false, "emit CSV instead of formatted tables")
		jsonOut = flag.Bool("json", false, "run an engine ledger and emit its BENCH_*.json document")
		engine  = flag.String("engine", "explicit", "with -json: which engine ledger to run (explicit, symbolic)")
		check   = flag.String("check", "", "with -json: compare the fresh run against this committed baseline and exit non-zero on regression")
		tol     = flag.Float64("tolerance", 3, "with -check: allowed slowdown factor against the baseline")
		caseTol = flag.String("case-tolerance", "", "with -check: per-case slowdown overrides, name=factor pairs separated by commas")
		bcase   = flag.String("case", "", "with -json: keep only benchmark cases whose name contains this substring")
		cpuDir  = flag.String("cpuprofile", "", "with -json: directory for per-case CPU profiles (<case>.cpu.pprof)")
		memDir  = flag.String("memprofile", "", "with -json: directory for per-case allocation profiles (<case>.mem.pprof)")
		quick   = flag.Bool("quick", false, "with -json: shrink the benchmark instances (CI smoke)")
	)
	flag.Parse()

	if *jsonOut {
		opts := experiments.BenchOpts{Quick: *quick, Case: *bcase, CPUDir: *cpuDir, MemDir: *memDir}
		tols := experiments.Tolerances{Default: *tol, PerCase: parseCaseTolerances(*caseTol)}
		fresh, err := experiments.Benchmark(*engine, opts)
		if err != nil {
			fmt.Fprintln(os.Stderr, "stsyn-bench:", err)
			os.Exit(1)
		}
		var bad, warn []string
		if *check != "" {
			var base experiments.Bench
			loadBaseline(*check, &base)
			bad, warn = experiments.Check(fresh, base, tols, !*quick && *bcase == "")
		}
		out, err := json.MarshalIndent(fresh, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "stsyn-bench:", err)
			os.Exit(1)
		}
		fmt.Println(string(out))
		for _, m := range warn {
			fmt.Fprintln(os.Stderr, "stsyn-bench: warning:", m)
		}
		if len(bad) > 0 {
			for _, m := range bad {
				fmt.Fprintln(os.Stderr, "stsyn-bench: regression:", m)
			}
			os.Exit(1)
		}
		if *check != "" {
			fmt.Fprintf(os.Stderr, "stsyn-bench: no regressions against %s\n", *check)
		}
		return
	}

	switch *fig {
	case "domain":
		// The domain-size investigation the paper omits for space.
		fmt.Print(experiments.FormatDomainRows(experiments.DomainEffect(3, []int{2, 3, 4, 5, 6, 7})))
	case "schedule":
		// The recovery-schedule investigation the paper omits for space.
		rows := scheduleRows()
		fmt.Print(experiments.FormatScheduleRows(rows))
	case "prune":
		// The symmetry-pruning effect on the committed ring case studies.
		fmt.Print(experiments.FormatPruneRows(experiments.PruneEffect()))
	case "table1":
		fmt.Print(experiments.FormatCorrectability(experiments.LocalCorrectability()))
	case "6", "7":
		emit("Figures 6-7: maximal matching (time and BDD space vs processes)",
			experiments.MatchingSweep(upto(matchingKs(), *max)), *csv)
	case "8", "9":
		emit("Figures 8-9: three coloring (time and BDD space vs processes)",
			experiments.ColoringSweep(upto(coloringKs(), *max)), *csv)
	case "10", "11":
		emit("Figures 10-11: token ring |D|=4 (time and BDD space vs processes)",
			experiments.TokenRingSweep(upto(tokenRingKs(), *max), 4), *csv)
	case "all":
		fmt.Print(experiments.FormatCorrectability(experiments.LocalCorrectability()))
		fmt.Println()
		emit("Figures 6-7: maximal matching",
			experiments.MatchingSweep(upto(matchingKs(), *max)), *csv)
		emit("Figures 8-9: three coloring",
			experiments.ColoringSweep(upto(coloringKs(), *max)), *csv)
		emit("Figures 10-11: token ring |D|=4",
			experiments.TokenRingSweep(upto(tokenRingKs(), *max), 4), *csv)
	default:
		fmt.Fprintf(os.Stderr, "stsyn-bench: unknown figure %q\n", *fig)
		os.Exit(1)
	}
}

// parseCaseTolerances parses the -case-tolerance value: comma-separated
// name=factor pairs (e.g. "two-ring=4,coloring-11=2.5").
func parseCaseTolerances(s string) map[string]float64 {
	if s == "" {
		return nil
	}
	out := make(map[string]float64)
	for _, pair := range strings.Split(s, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(pair), "=")
		if !ok {
			fmt.Fprintf(os.Stderr, "stsyn-bench: -case-tolerance entry %q is not name=factor\n", pair)
			os.Exit(1)
		}
		f, err := strconv.ParseFloat(val, 64)
		if err != nil || f <= 0 {
			fmt.Fprintf(os.Stderr, "stsyn-bench: -case-tolerance factor %q is not a positive number\n", val)
			os.Exit(1)
		}
		out[name] = f
	}
	return out
}

// loadBaseline reads a committed BENCH_*.json document into dst.
func loadBaseline(path string, dst *experiments.Bench) {
	raw, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "stsyn-bench:", err)
		os.Exit(1)
	}
	if err := json.Unmarshal(raw, dst); err != nil {
		fmt.Fprintf(os.Stderr, "stsyn-bench: %s: %v\n", path, err)
		os.Exit(1)
	}
}

// The paper's sweeps: matching K=5..11, coloring K=5..40 step 5, token
// ring k=2..5 with |D|=4.
func matchingKs() []int  { return []int{5, 6, 7, 8, 9, 10, 11} }
func coloringKs() []int  { return []int{5, 10, 15, 20, 25, 30, 35, 40} }
func tokenRingKs() []int { return []int{2, 3, 4, 5} }

func upto(ks []int, max int) []int {
	if max <= 0 {
		return ks
	}
	out := ks[:0:0]
	for _, k := range ks {
		if k <= max {
			out = append(out, k)
		}
	}
	return out
}

func emit(title string, rows []experiments.Row, csv bool) {
	if !csv {
		fmt.Print(experiments.FormatRows(title, rows))
		fmt.Println()
		return
	}
	fmt.Printf("# %s\n", title)
	fmt.Println("k,states,ranking_ms,scc_ms,total_ms,avg_scc_nodes,program_nodes,scc_count,max_rank,pass,verified,peak_nodes,gc_runs,cache_hit_rate,err")
	for _, r := range rows {
		fmt.Printf("%d,%g,%.3f,%.3f,%.3f,%.1f,%d,%d,%d,%d,%v,%d,%d,%.3f,%q\n",
			r.K, r.States,
			float64(r.RankingTime)/float64(time.Millisecond),
			float64(r.SCCTime)/float64(time.Millisecond),
			float64(r.TotalTime)/float64(time.Millisecond),
			r.AvgSCCSize, r.ProgramSize, r.SCCCount, r.MaxRank, r.Pass, r.Verified,
			r.PeakNodes, r.GCRuns, r.CacheHitRate, r.Err)
	}
}
