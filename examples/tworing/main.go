// Two-ring token ring TR² (Section VI-C of the paper): a more complicated
// topology — two 4-process unidirectional rings coupled at their
// 0-processes with a turn variable alternating the rings.
//
// This example also demonstrates the lightweight method's schedule fan-out
// (the paper's Figure 1): one synthesis attempt per recovery schedule runs
// on its own goroutine, and the first success wins.
//
// Run with: go run ./examples/tworing
package main

import (
	"fmt"
	"log"
	"runtime"

	"stsyn"
)

func main() {
	sp := stsyn.TwoRingTokenRing()
	n, _ := sp.NumStates()
	fmt.Printf("TR²: %d processes, %d states, |I| has one token per phase.\n\n", len(sp.Procs), n)

	factory := func() (stsyn.Engine, error) { return stsyn.NewEngine(sp) }
	schedules := stsyn.Rotations(len(sp.Procs))
	best, attempts, err := stsyn.TrySchedules(factory, stsyn.Options{}, schedules, runtime.GOMAXPROCS(0))
	if err != nil {
		log.Fatalf("all %d schedules failed: %v", len(attempts), err)
	}
	fmt.Printf("Schedule %v succeeded (pass %d, %v; %d of %d attempts needed).\n\n",
		best.Schedule, best.Result.PassCompleted, best.Result.TotalTime.Round(1e6),
		countTried(attempts), len(attempts))

	// The winner carries the engine it synthesized on: render and verify
	// there.
	eng, res := best.Engine, best.Result
	fmt.Printf("Added %d recovery groups. Synthesized protocol:\n\n", len(res.Added))
	fmt.Println(stsyn.Render(eng, res.Protocol))

	if v := stsyn.VerifyStronglyStabilizing(eng, res.Protocol); !v.OK {
		log.Fatalf("verification failed: %s (witness %v)", v.Reason, v.Witness)
	}
	fmt.Println("Verified: strongly self-stabilizing — one token in the two rings from any state.")
}

func countTried(attempts []stsyn.Attempt) int {
	n := 0
	for _, a := range attempts {
		if a.Err != stsyn.ErrSkippedAttempt {
			n++
		}
	}
	return n
}
