// Command perfbench is stsyn's end-to-end and per-layer benchmark. It
// drives the three shipped paths in-process through the public calls their
// binaries make — the stsyn CLI (NewEngine → AddConvergence →
// VerifyStronglyStabilizing → EncodeResult), stsyn-serve over loopback
// HTTP, and the stsyn-dist coordinator with two loopback workers — checks
// every output, and prints one JSON result as its last line. See README.md.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload cli-sweep --seed 1 --seconds 40 --trace 0
//	bash perfbench/run.sh --record   # re-record perfbench/digests.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"
)

func workloads() map[string]*workload {
	return map[string]*workload{
		"cli-sweep":   cliWorkload(),
		"service-mix": serviceWorkload(),
		"dist-search": distWorkload(),
	}
}

func main() {
	name := flag.String("workload", "", "workload: cli-sweep, service-mix or dist-search")
	seed := flag.Int64("seed", 1, "seed the inputs are generated from")
	seconds := flag.Int("seconds", 40, "measurement budget in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from traced rounds")
	rec := flag.Bool("record", false, "recompute perfbench/digests.json through the CLI path and exit")
	flag.Parse()
	if *rec {
		if err := record("perfbench/digests.json"); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(*name, *seed, *seconds, *trace); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds, trace int) error {
	w, ok := workloads()[name]
	if !ok {
		return fmt.Errorf("unknown workload %q (want %s)", name, strings.Join(sortedKeys(workloads()), ", "))
	}
	if seconds < 1 || (trace != 0 && trace != 1) {
		return fmt.Errorf("need --seconds ≥ 1 and --trace 0 or 1")
	}
	prov := hostProvenance(name, seed, seconds, trace)
	p, _ := json.Marshal(prov)
	fmt.Printf("# provenance %s\n", p)

	var tr *tracer
	if trace == 1 {
		tr = newTracer()
	}
	o, err := measure(w, seed, time.Duration(seconds)*time.Second, trace == 1, tr)
	if err != nil {
		return err
	}
	var reports []report
	if trace == 1 {
		reports = perLayer(w, o)
		path := traceFile(name, seed)
		if err := tr.write(path); err != nil {
			return fmt.Errorf("writing spans: %w", err)
		}
		fmt.Printf("# spans written to %s\n", path)
	} else if reports, err = endToEnd(w, o); err != nil {
		return err
	}

	attempted, failed := failedOps(o)
	for _, f := range o.failures {
		fmt.Fprintln(os.Stderr, "FAIL", f)
	}
	res := result{
		Correct:   failed == 0 && len(o.failures) == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   map[string]metricValue{},
	}
	fmt.Printf("# %s: %d rounds, %d ops, %d failed, fail_ratio %.4g\n",
		name, len(o.rounds), attempted, failed, float64(failed)/float64(max(attempted, 1)))
	for _, r := range reports {
		fmt.Printf("# %-28s %14.6g %-5s (n=%d %s)\n", r.def.Name, r.value, r.def.Unit, r.n, r.what)
		res.Metrics[r.def.Name] = metricValue{Value: r.value, Unit: r.def.Unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
