package experiments

import (
	"fmt"
	"strings"
	"time"

	"stsyn/internal/core"
	"stsyn/internal/explicit"
	"stsyn/internal/protocol"
	"stsyn/internal/protocols"
	"stsyn/internal/prune"
)

// The symmetry-pruning experiment (EXPERIMENTS.md "Symmetry-quotiented
// schedule search"): the same schedule search run unpruned and through
// internal/prune's orbit quotient, on the committed ring case studies. The
// quotient divides the search space by the group size (the action is
// free), which shows up in the wall time. Both legs must agree on the
// outcome — the pruned search is result-preserving by construction, and
// this experiment re-checks it.
// Regenerate with `stsyn-bench -fig prune`.

// PruneRow is one case study measured with and without pruning.
type PruneRow struct {
	Name      string
	Space     string // schedule source: all(k!) or rotations(k)
	GroupSize int

	Schedules      int // search-space size
	Representative int // schedules surviving the quotient

	UnprunedTime time.Duration
	PrunedTime   time.Duration

	Outcome string // "win@<schedule>" or "all fail"
	Match   bool   // both legs agree (same winner and protocol, or both fail)
	Err     string
}

func pruneEffectCases() []struct {
	Name  string
	Spec  *protocol.Spec
	All   bool // full k! instead of rotations
	Procs int
} {
	return []struct {
		Name  string
		Spec  *protocol.Spec
		All   bool
		Procs int
	}{
		{"coloring-4", protocols.Coloring(4), true, 4},
		{"coloring-5", protocols.Coloring(5), true, 5},
		{"matching-4", protocols.Matching(4), true, 4},
		{"matching-5", protocols.Matching(5), false, 5},
		{"coloring-6", protocols.Coloring(6), false, 6},
		{"token-ring-4-3", protocols.TokenRing(4, 3), false, 4},
	}
}

// PruneEffect runs both legs of each case single-threaded, so the
// schedule-evaluation order (and thus the timing comparison) is exactly
// the sequential lowest-index search in both.
func PruneEffect() []PruneRow {
	var rows []PruneRow
	for _, c := range pruneEffectCases() {
		row := PruneRow{Name: c.Name}
		scheds := core.Rotations(c.Procs)
		row.Space = fmt.Sprintf("rotations(%d)", len(scheds))
		if c.All {
			scheds = core.AllSchedules(c.Procs)
			row.Space = fmt.Sprintf("all(%d)", len(scheds))
		}
		row.Schedules = len(scheds)

		g := prune.DeriveGroup(c.Spec)
		row.GroupSize = g.Size()
		q := prune.NewQuotientStream(g, core.StreamSchedules(scheds), true)
		var reps [][]int
		for s, ok := q.Next(); ok; s, ok = q.Next() {
			reps = append(reps, s)
		}
		row.Representative = len(reps)

		factory := func() (core.Engine, error) { return explicit.New(c.Spec, 0) }
		t0 := time.Now()
		bestU, _, errU := core.TrySchedules(factory, core.Options{}, scheds, 1)
		row.UnprunedTime = time.Since(t0)

		t0 = time.Now()
		bestP, _, errP := core.TrySchedules(factory, core.Options{}, reps, 1)
		row.PrunedTime = time.Since(t0)

		switch {
		case errU != nil && errP != nil:
			row.Outcome = "all fail"
			row.Match = true
		case errU == nil && errP == nil:
			row.Outcome = fmt.Sprintf("win@%v", bestU.Schedule)
			u := protocolKeys(bestU.Result.Protocol)
			p := protocolKeys(bestP.Result.Protocol)
			row.Match = sameKeys(u, p) && fmt.Sprint(bestU.Schedule) == fmt.Sprint(bestP.Schedule)
		default:
			row.Match = false
			row.Err = fmt.Sprintf("outcome diverged: unpruned err=%v, pruned err=%v", errU, errP)
		}
		rows = append(rows, row)
	}
	return rows
}

// FormatPruneRows renders the sweep as the EXPERIMENTS.md table.
func FormatPruneRows(rows []PruneRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Symmetry pruning: orbit quotient (sequential search)\n")
	fmt.Fprintf(&b, "%-16s %-14s %6s %6s %6s %12s %12s  %-18s %s\n",
		"case", "space", "group", "scheds", "reps", "unpruned", "pruned", "outcome", "match")
	ms := func(d time.Duration) string {
		return fmt.Sprintf("%.1fms", float64(d)/float64(time.Millisecond))
	}
	for _, r := range rows {
		fmt.Fprintf(&b, "%-16s %-14s %6d %6d %6d %12s %12s  %-18s %v\n",
			r.Name, r.Space, r.GroupSize, r.Schedules, r.Representative,
			ms(r.UnprunedTime), ms(r.PrunedTime), r.Outcome, r.Match)
		if r.Err != "" {
			fmt.Fprintf(&b, "  error: %s\n", r.Err)
		}
	}
	return b.String()
}
