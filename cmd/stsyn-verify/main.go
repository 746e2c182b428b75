// Command stsyn-verify model-checks the stabilization properties of a
// protocol: closure of the legitimate-state predicate, deadlock freedom,
// absence of non-progress cycles, weak and strong convergence and silence.
// It is the checker behind the paper's flaw discovery in the Gouda-Acharya
// matching protocol.
//
// Usage:
//
//	stsyn-verify -p dijkstra -k 4 -dom 3
//	stsyn-verify -p gouda-acharya -k 5       # exhibits the paper's flaw
//	stsyn-verify -spec ring.stsyn
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"stsyn"
	"stsyn/internal/cli"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command with its arguments and output streams; it returns the
// exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("stsyn-verify", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		proto    = fs.String("p", "", "built-in protocol: "+cli.Names)
		specFile = fs.String("spec", "", "read the protocol from a .stsyn file instead")
		k        = fs.Int("k", 4, "number of processes (parametric built-ins)")
		dom      = fs.Int("dom", 3, "variable domain size (token ring)")
		engine   = fs.String("engine", "auto", "state-space engine: auto, explicit, symbolic")
		witness  = fs.Bool("witness", true, "print a concrete cycle when one exists")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	fail := func(err error) int {
		fmt.Fprintln(stderr, "stsyn-verify:", err)
		return 1
	}

	sp, err := cli.LoadSpec(*proto, *specFile, *k, *dom)
	if err != nil {
		return fail(err)
	}
	e, err := cli.NewEngine(sp, *engine)
	if err != nil {
		return fail(err)
	}

	gs := e.ActionGroups()
	n, _ := sp.NumStates()
	fmt.Fprintf(stdout, "protocol %s: %d processes, %d states, |I| = %.6g\n\n",
		sp.Name, len(sp.Procs), n, e.States(e.Invariant()))

	failures := 0
	check := func(name string, v stsyn.Verdict) bool {
		if v.OK {
			fmt.Fprintf(stdout, "  %-22s OK\n", name)
			return true
		}
		failures++
		fmt.Fprintf(stdout, "  %-22s FAIL: %s", name, v.Reason)
		if v.Witness != nil {
			fmt.Fprintf(stdout, " (witness %v)", v.Witness)
		}
		fmt.Fprintln(stdout)
		return false
	}

	check("closure", stsyn.VerifyClosure(e, gs))
	check("deadlock freedom", stsyn.VerifyDeadlockFree(e, gs))
	cyclesOK := check("cycle freedom", stsyn.VerifyCycleFree(e, gs))
	check("weak convergence", stsyn.VerifyWeakConvergence(e, gs))
	check("strong convergence", stsyn.VerifyStrongConvergence(e, gs))
	// Silence is informational: token-circulation protocols are correctly
	// non-silent, while matching/coloring should quiesce in I.
	if v := stsyn.VerifySilent(e, gs); v.OK {
		fmt.Fprintf(stdout, "  %-22s yes\n", "silent in I")
	} else {
		fmt.Fprintf(stdout, "  %-22s no (a group stays enabled, e.g. at %v)\n", "silent in I", v.Witness)
	}

	if !cyclesOK && *witness {
		sccs := e.CyclicSCCs(gs, e.Not(e.Invariant()))
		if len(sccs) > 0 {
			fmt.Fprintln(stdout, "\nconcrete non-progress cycle:")
			for _, s := range stsyn.CycleWitness(e, gs, sccs[0]) {
				fmt.Fprintf(stdout, "  %v\n", s)
			}
		}
	}

	if failures > 0 {
		fmt.Fprintf(stdout, "\n%d properties violated\n", failures)
		return 1
	}
	fmt.Fprintln(stdout, "\nall properties hold: the protocol is strongly self-stabilizing")
	return 0
}
