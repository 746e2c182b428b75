// Command stsyn adds convergence to a non-stabilizing protocol and prints
// the synthesized self-stabilizing protocol as guarded commands — the Go
// counterpart of the paper's STabilization Synthesizer (STSyn).
//
// Usage:
//
//	stsyn -p tokenring -k 4 -dom 3
//	stsyn -p matching -k 7 -engine symbolic
//	stsyn -p coloring -k 40
//	stsyn -p tworing -fanout          # try all rotations in parallel
//	stsyn -spec ring.stsyn            # synthesize a protocol from a spec file
//
// The options are resolved and the job is run by the same code as a
// stsyn-serve worker's (service.Normalize and service.Run), so -json prints
// exactly what the server answers for the same request.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"stsyn"
	"stsyn/internal/cli"
	"stsyn/internal/dot"
	"stsyn/internal/prune"
	"stsyn/internal/service"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command with its arguments and output streams; it returns the
// exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("stsyn", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		proto    = fs.String("p", "", "built-in protocol: "+cli.Names)
		specFile = fs.String("spec", "", "read the protocol from a .stsyn guarded-command file instead")
		k        = fs.Int("k", 4, "number of processes (parametric built-ins)")
		dom      = fs.Int("dom", 3, "variable domain size (token ring)")
		engine   = fs.String("engine", "auto", "state-space engine: auto, explicit, symbolic")
		weak     = fs.Bool("weak", false, "add weak convergence instead of strong")
		schedule = fs.String("schedule", "", "recovery schedule, e.g. 1,2,3,0 (default: P1..Pk-1,P0)")
		resol    = fs.String("resolution", "batch", "cycle resolution: batch (paper) or incremental")
		fanout   = fs.Bool("fanout", false, "try all cyclic-rotation schedules in parallel, first success wins")
		pruneOn  = fs.Bool("prune", false, "quotient the schedule search by the spec's symmetry group and memoize shared sub-results (result is unchanged)")
		quiet    = fs.Bool("q", false, "print only statistics, not the protocol")
		jsonOut  = fs.Bool("json", false, "emit the result as JSON (the same encoding stsyn-serve returns)")
		dotFile  = fs.String("dot", "", "also write the synthesized state graph as Graphviz DOT (small instances)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "stsyn:", err)
		return 1
	}

	sp, err := cli.LoadSpec(*proto, *specFile, *k, *dom)
	if err != nil {
		return fail(err)
	}
	req := &service.Request{Engine: *engine, Resolution: *resol, Fanout: *fanout, Prune: *pruneOn}
	if *weak {
		req.Convergence = "weak"
	}
	if req.Schedule, err = cli.ParseSchedule(*schedule); err != nil {
		return fail(err)
	}
	norm, err := service.Normalize(req, sp)
	if err != nil {
		return fail(err)
	}

	if !*jsonOut {
		n, _ := sp.NumStates()
		fmt.Fprintf(stdout, "protocol %s: %d processes, %d variables, %d states\n",
			sp.Name, len(sp.Procs), len(sp.Vars), n)
	}
	out, err := service.Run(context.Background(), norm, prune.NewMemo(0))
	if err != nil {
		return fail(err)
	}
	e, res, resp := out.Engine, out.Result, out.Response

	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(resp); err != nil {
			return fail(err)
		}
	} else {
		if *fanout {
			fmt.Fprintf(stdout, "schedule %v succeeded\n", resp.Schedule)
		}
		fmt.Fprintf(stdout, "synthesized: pass=%d ranks=%d added=%d removed=%d\n",
			res.PassCompleted, res.MaxRank(), len(res.Added), len(res.Removed))
		fmt.Fprintf(stdout, "time: total=%v ranking=%v scc=%v\n",
			res.TotalTime.Round(1e6), res.RankingTime.Round(1e6), res.SCCTime.Round(1e6))
		fmt.Fprintf(stdout, "space: program=%d avg-scc=%.1f (#scc=%d)\n",
			res.ProgramSize, res.AvgSCCSize, res.SCCCount)
		if p := resp.Prune; p != nil {
			line := fmt.Sprintf("prune: group=%d", p.GroupSize)
			if *fanout {
				line += fmt.Sprintf(" schedules-emitted=%d schedules-pruned=%d", p.SchedulesEmitted, p.SchedulesPruned)
			}
			line += fmt.Sprintf(" memo-hits=%d memo-misses=%d", p.MemoHits, p.MemoMisses)
			fmt.Fprintln(stdout, line)
		}
		if b := resp.BDD; b != nil {
			fmt.Fprintf(stdout, "bdd: live=%d peak=%d cache-hit=%.0f%% gc-runs=%d reclaimed=%d\n",
				b.LiveNodes, b.PeakLiveNodes, 100*b.CacheHitRate, b.GCRuns, b.GCReclaimed)
		}
		if !*quiet {
			fmt.Fprintln(stdout)
			fmt.Fprintln(stdout, stsyn.Render(e, res.Protocol))
		}
	}

	if *dotFile != "" {
		graph, err := dot.Graph(e, res.Protocol, dot.Options{
			Ranks:              res.Ranks,
			HighlightDeadlocks: true,
		})
		if err != nil {
			return fail(err)
		}
		if err := os.WriteFile(*dotFile, []byte(graph), 0o644); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stderr, "state graph written to %s\n", *dotFile)
	}

	if v := out.Verdict; !v.OK {
		fmt.Fprintf(stderr, "VERIFICATION FAILED: %s (witness %v)\n", v.Reason, v.Witness)
		return 1
	}
	if !*jsonOut {
		fmt.Fprintln(stdout, "verified: self-stabilizing")
	}
	return 0
}
