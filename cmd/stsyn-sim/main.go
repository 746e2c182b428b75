// Command stsyn-sim batters a protocol with transient faults and measures
// convergence operationally, in both execution models:
//
//   - shared memory: uniformly random start states, random scheduler;
//   - message passing: the cached-copy refinement with corrupted caches and
//     junk in-flight messages (see internal/channel).
//
// By default it first synthesizes the stabilizing version (like cmd/stsyn)
// and simulates that; -raw simulates the input protocol as-is.
//
// Usage:
//
//	stsyn-sim -p tokenring -k 5 -dom 5 -trials 5000
//	stsyn-sim -p dijkstra -raw -mp
//	stsyn-sim -spec ring.stsyn -trials 1000
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"

	"stsyn"
	"stsyn/internal/channel"
	"stsyn/internal/cli"
)

func main() {
	var (
		proto    = flag.String("p", "", "built-in protocol: "+cli.Names)
		specFile = flag.String("spec", "", "read the protocol from a .stsyn file instead")
		k        = flag.Int("k", 4, "number of processes (parametric built-ins)")
		dom      = flag.Int("dom", 3, "variable domain size (token ring)")
		trials   = flag.Int("trials", 2000, "number of random-fault trials")
		seed     = flag.Int64("seed", 1, "RNG seed")
		raw      = flag.Bool("raw", false, "simulate the input protocol without synthesizing first")
		mp       = flag.Bool("mp", false, "also run the message-passing refinement")
		maxSteps = flag.Int("maxsteps", 0, "step bound per trial (0 = automatic)")
		resol    = flag.String("resolution", "auto", "cycle resolution for synthesis: auto, batch or incremental")
	)
	flag.Parse()

	sp, err := cli.LoadSpec(*proto, *specFile, *k, *dom)
	fatalIf(err)

	factory := func() (stsyn.Engine, error) { return stsyn.NewEngine(sp) }
	eng, err := factory()
	fatalIf(err)

	groups := eng.ActionGroups()
	if !*raw {
		opts := stsyn.Options{}
		var res *stsyn.Result
		switch *resol {
		case "auto":
			res, eng, err = stsyn.AddConvergenceAuto(factory, opts)
		case "incremental":
			opts.CycleResolution = stsyn.IncrementalResolution
			res, err = stsyn.AddConvergence(eng, opts)
		case "batch":
			res, err = stsyn.AddConvergence(eng, opts)
		default:
			err = fmt.Errorf("unknown resolution %q", *resol)
		}
		fatalIf(err)
		groups = res.Protocol
		fmt.Printf("synthesized %s: %d groups (%d added), pass %d\n",
			sp.Name, len(groups), len(res.Added), res.PassCompleted)
	} else {
		fmt.Printf("simulating %s as-is: %d groups\n", sp.Name, len(groups))
	}

	sim := stsyn.NewSimulator(eng, groups)
	stats := sim.Estimate(*trials, stsyn.SimConfig{Seed: *seed, MaxSteps: *maxSteps})
	fmt.Printf("shared memory:   %s\n", stats)

	if *mp {
		pgs := stsyn.ProtocolGroups(groups)
		sys, err := channel.New(sp, pgs)
		if err != nil {
			fmt.Printf("message passing: skipped (%v)\n", err)
			return
		}
		rng := rand.New(rand.NewSource(*seed))
		bound := *maxSteps
		if bound == 0 {
			bound = 50000
		}
		converged, steps, maxSeen := 0, 0, 0
		for i := 0; i < *trials; i++ {
			sys.Randomize(rng, 2*len(sp.Procs))
			out := sys.Run(rng, bound)
			if out.Converged {
				converged++
				steps += out.Steps
				if out.Steps > maxSeen {
					maxSeen = out.Steps
				}
			}
		}
		mean := 0.0
		if converged > 0 {
			mean = float64(steps) / float64(converged)
		}
		fmt.Printf("message passing: %d/%d converged (%.1f%%), mean %.1f ticks, max %d\n",
			converged, *trials, 100*float64(converged)/float64(*trials), mean, maxSeen)
	}
}

func fatalIf(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "stsyn-sim:", err)
		os.Exit(1)
	}
}
