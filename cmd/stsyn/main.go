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
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"

	"stsyn"
	"stsyn/internal/cli"
	"stsyn/internal/core"
	"stsyn/internal/dot"
	"stsyn/internal/explicit"
	"stsyn/internal/gcl"
	"stsyn/internal/protocol"
	"stsyn/internal/prune"
	"stsyn/internal/service"
)

func main() {
	var (
		proto    = flag.String("p", "", "built-in protocol: "+cli.Names)
		specFile = flag.String("spec", "", "read the protocol from a .stsyn guarded-command file instead")
		k        = flag.Int("k", 4, "number of processes (parametric built-ins)")
		dom      = flag.Int("dom", 3, "variable domain size (token ring)")
		engine   = flag.String("engine", "auto", "state-space engine: auto, explicit, symbolic")
		weak     = flag.Bool("weak", false, "add weak convergence instead of strong")
		schedule = flag.String("schedule", "", "recovery schedule, e.g. 1,2,3,0 (default: P1..Pk-1,P0)")
		resol    = flag.String("resolution", "batch", "cycle resolution: batch (paper) or incremental")
		fanout   = flag.Bool("fanout", false, "try all cyclic-rotation schedules in parallel, first success wins")
		pruneOn  = flag.Bool("prune", false, "quotient the schedule search by the spec's symmetry group and memoize shared sub-results (result is unchanged)")
		quiet    = flag.Bool("q", false, "print only statistics, not the protocol")
		jsonOut  = flag.Bool("json", false, "emit the result as JSON (the same encoding stsyn-serve returns)")
		dotFile  = flag.String("dot", "", "also write the synthesized state graph as Graphviz DOT (small instances)")
	)
	flag.Parse()

	sp, err := loadSpec(*proto, *specFile, *k, *dom)
	fatalIf(err)

	opts := stsyn.Options{}
	if *weak {
		opts.Convergence = stsyn.Weak
	}
	switch *resol {
	case "batch":
	case "incremental":
		opts.CycleResolution = stsyn.IncrementalResolution
	default:
		fatalIf(fmt.Errorf("unknown cycle resolution %q", *resol))
	}
	opts.Schedule, err = cli.ParseSchedule(*schedule)
	fatalIf(err)

	// -prune: the orbit quotient needs schedule-equivariant synthesis, which
	// incremental cycle resolution does not provide (the retry order flips
	// under relabeling).
	var group *prune.Group
	var jobMemo *prune.JobMemo
	if *pruneOn {
		if opts.CycleResolution == stsyn.IncrementalResolution {
			fatalIf(fmt.Errorf("-prune requires batch resolution: incremental cycle resolution is not equivariant under the symmetry group"))
		}
		group = prune.DeriveGroup(sp)
		jobMemo = prune.NewMemo(0).ForJob(prune.Scope(sp, *engine, opts.Convergence, opts.CycleResolution))
		opts.Memo = jobMemo
	}

	mkEngine := func() (stsyn.Engine, error) { return newEngine(sp, *engine) }

	n, _ := sp.NumStates()
	if !*jsonOut {
		fmt.Printf("protocol %s: %d processes, %d variables, %d states\n",
			sp.Name, len(sp.Procs), len(sp.Vars), n)
	}

	var quotient *prune.QuotientStats
	if *fanout {
		scheds := stsyn.Rotations(len(sp.Procs))
		if group != nil {
			// The rotations list is lex-ordered and closed under the
			// rotation-generated group, so keeping canonical members keeps
			// exactly the first member of each orbit: the winner (and its
			// index among survivors) is the unpruned winner.
			q := prune.NewQuotientStream(group, core.StreamSchedules(scheds), true)
			scheds = nil
			for s, ok := q.Next(); ok; s, ok = q.Next() {
				scheds = append(scheds, s)
			}
			qs := q.Stats()
			quotient = &qs
		}
		best, attempts, err := stsyn.TrySchedules(mkEngine, opts,
			scheds, runtime.GOMAXPROCS(0))
		if err != nil {
			fmt.Fprintf(os.Stderr, "all %d schedules failed: %v\n", len(attempts), err)
			os.Exit(1)
		}
		if !*jsonOut {
			fmt.Printf("schedule %v succeeded\n", best.Schedule)
		}
		opts.Schedule = best.Schedule
	}

	e, err := mkEngine()
	fatalIf(err)
	res, err := stsyn.AddConvergence(e, opts)
	fatalIf(err)

	if !*jsonOut {
		fmt.Printf("synthesized: pass=%d ranks=%d added=%d removed=%d\n",
			res.PassCompleted, res.MaxRank(), len(res.Added), len(res.Removed))
		fmt.Printf("time: total=%v ranking=%v scc=%v\n",
			res.TotalTime.Round(1e6), res.RankingTime.Round(1e6), res.SCCTime.Round(1e6))
		fmt.Printf("space: program=%d avg-scc=%.1f (#scc=%d)\n",
			res.ProgramSize, res.AvgSCCSize, res.SCCCount)
		if group != nil {
			line := fmt.Sprintf("prune: group=%d", group.Size())
			if quotient != nil {
				line += fmt.Sprintf(" schedules-emitted=%d schedules-pruned=%d", quotient.Emitted, quotient.Pruned)
			}
			if jobMemo != nil {
				line += fmt.Sprintf(" memo-hits=%d memo-misses=%d", jobMemo.Hits(), jobMemo.Misses())
			}
			fmt.Println(line)
		}
		if sr, ok := e.(stsyn.SpaceReporter); ok {
			st := sr.SpaceStats()
			fmt.Printf("bdd: live=%d peak=%d cache-hit=%.0f%% gc-runs=%d reclaimed=%d\n",
				st.LiveNodes, st.PeakLiveNodes, 100*st.CacheHitRate, st.GCRuns, st.GCReclaimed)
		}
		if !*quiet {
			fmt.Println()
			fmt.Println(stsyn.Render(e, res.Protocol))
		}
	}

	if *dotFile != "" {
		out, err := dot.Graph(e, res.Protocol, dot.Options{
			Ranks:              res.Ranks,
			HighlightDeadlocks: true,
		})
		fatalIf(err)
		fatalIf(os.WriteFile(*dotFile, []byte(out), 0o644))
		fmt.Fprintf(os.Stderr, "state graph written to %s\n", *dotFile)
	}

	verdict := stsyn.VerifyStronglyStabilizing(e, res.Protocol)
	if *weak {
		verdict = stsyn.VerifyWeaklyStabilizing(e, res.Protocol)
	}

	if *jsonOut {
		sched := opts.Schedule
		if sched == nil {
			sched = stsyn.DefaultSchedule(len(sp.Procs))
		}
		j := &service.Job{
			Spec:        sp,
			Engine:      engineName(e),
			Convergence: opts.Convergence,
			Schedule:    sched,
			Resolution:  opts.CycleResolution,
			Fanout:      *fanout,
			Prune:       *pruneOn,
		}
		out := service.EncodeResult(e, res, j, verdict.OK)
		if group != nil {
			ps := &service.PruneStats{GroupSize: group.Size()}
			if quotient != nil {
				ps.SchedulesEmitted = quotient.Emitted
				ps.SchedulesPruned = quotient.Pruned
			}
			if jobMemo != nil {
				ps.MemoHits = jobMemo.Hits()
				ps.MemoMisses = jobMemo.Misses()
			}
			out.Prune = ps
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		fatalIf(enc.Encode(out))
	}

	if verdict.OK {
		if !*jsonOut {
			fmt.Println("verified: self-stabilizing")
		}
	} else {
		fmt.Fprintf(os.Stderr, "VERIFICATION FAILED: %s (witness %v)\n", verdict.Reason, verdict.Witness)
		os.Exit(1)
	}
}

// engineName labels the engine for the JSON encoding.
func engineName(e stsyn.Engine) string {
	if _, ok := e.(*explicit.Engine); ok {
		return "explicit"
	}
	return "symbolic"
}

func loadSpec(proto, specFile string, k, dom int) (*protocol.Spec, error) {
	switch {
	case specFile != "":
		data, err := os.ReadFile(specFile)
		if err != nil {
			return nil, err
		}
		return gcl.Parse(specFile, string(data))
	case proto != "":
		return cli.BuildSpec(proto, k, dom)
	default:
		return nil, fmt.Errorf("need -p <name> or -spec <file> (built-ins: %s)", cli.Names)
	}
}

func newEngine(sp *protocol.Spec, kind string) (stsyn.Engine, error) {
	switch kind {
	case "explicit":
		return stsyn.NewExplicitEngine(sp, 0)
	case "symbolic":
		return stsyn.NewSymbolicEngine(sp)
	case "auto", "":
		return stsyn.NewEngine(sp)
	default:
		return nil, fmt.Errorf("unknown engine %q", kind)
	}
}

func fatalIf(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "stsyn:", err)
		os.Exit(1)
	}
}
