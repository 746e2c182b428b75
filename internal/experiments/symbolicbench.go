package experiments

import (
	"runtime"
	"time"

	"stsyn/internal/core"
	"stsyn/internal/protocol"
	"stsyn/internal/protocols"
	"stsyn/internal/symbolic"
	"stsyn/internal/verify"
)

// The symbolic-engine perf benchmark: the same synthesis workload run
// with the reference fixpoint scheme (full-image trim, whole-set SCC
// grow, throwaway scratch managers — the pre-tuning engine) and with the
// tuned default (dead-group dropping, frontier grow, retained warm
// scratch manager with a persistent→scratch copy memo). The committed
// BENCH_symbolic.json baseline is generated from these rows
// (`stsyn-bench -json -engine symbolic` / scripts/bench.sh).

// SymbolicLeg is one measured synthesis run on the symbolic engine.
type SymbolicLeg struct {
	TotalMs         float64 `json:"total_ms"`
	RankingMs       float64 `json:"ranking_ms"`
	SCCMs           float64 `json:"scc_ms"`
	AllocBytes      uint64  `json:"alloc_bytes"`
	AllocObjects    uint64  `json:"alloc_objects"`
	RankInfFastFail int     `json:"rank_infinity_fastfail"`
	PeakNodes       int     `json:"peak_nodes"`
	CacheHitRate    float64 `json:"cache_hit_rate"`
	Verified        bool    `json:"verified"`
	Err             string  `json:"err,omitempty"`
}

// SymbolicBenchRow is the before/after measurement for one case study.
type SymbolicBenchRow struct {
	Name   string  `json:"name"`
	States float64 `json:"states"`
	Groups int     `json:"groups"`

	Reference SymbolicLeg `json:"reference"` // reference fixpoints, throwaway scratch
	Tuned     SymbolicLeg `json:"tuned"`     // frontier/dropping fixpoints + warm scratch

	// Speedup is Reference.TotalMs / Tuned.TotalMs.
	Speedup float64 `json:"speedup"`
	// ProtocolsMatch reports that both legs synthesized the identical
	// protocol (same group keys) — the knobs must not change results.
	ProtocolsMatch bool `json:"protocols_match"`
}

// SymbolicBench is the document committed as BENCH_symbolic.json.
type SymbolicBench struct {
	Description string             `json:"description"`
	Cases       []SymbolicBenchRow `json:"cases"`
}

// symbolicBenchCases are the case studies of the baseline. The small
// instances size so cycle detection dominates and every leg finishes in
// seconds; coloring-11 and two-ring — absent before the profile-guided
// rank/recovery pass because the tuning left them at 1.0× (coloring-11)
// or over a minute per leg (two-ring) — exercise the warm-scratch
// ranking/recovery images and the balanced union trees that pass added.
// coloring-13 (3^13 states) is the smallest instance engine "auto" hands
// to the symbolic engine, so one full-list case runs where default
// traffic does; its recovery probes dominate the solve.
// Quick mode keeps only the small instances: two-ring alone costs
// minutes across six legs, far past a CI smoke budget.
func symbolicBenchCases(quick bool) []struct {
	Name string
	Spec *protocol.Spec
} {
	if quick {
		return []struct {
			Name string
			Spec *protocol.Spec
		}{
			{"token-ring-4-3", protocols.TokenRing(4, 3)},
			{"matching-6", protocols.Matching(6)},
			{"coloring-7", protocols.Coloring(7)},
		}
	}
	return []struct {
		Name string
		Spec *protocol.Spec
	}{
		{"token-ring-4-3", protocols.TokenRing(4, 3)},
		{"token-ring-5-4", protocols.TokenRing(5, 4)},
		{"matching-6", protocols.Matching(6)},
		{"matching-7", protocols.Matching(7)},
		{"coloring-7", protocols.Coloring(7)},
		{"coloring-11", protocols.Coloring(11)},
		{"coloring-13", protocols.Coloring(13)},
		{"two-ring", protocols.TwoRingTokenRing()},
	}
}

// runSymbolicLeg builds a fresh symbolic engine, applies configure, runs
// AddConvergence and returns the measured leg plus the synthesized
// protocol's keys (nil on failure).
func runSymbolicLeg(sp *protocol.Spec, configure func(*symbolic.Engine)) (SymbolicLeg, []protocol.Key) {
	var leg SymbolicLeg
	e, err := symbolic.New(sp)
	if err != nil {
		leg.Err = err.Error()
		return leg, nil
	}
	if configure != nil {
		configure(e)
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	res, err := core.AddConvergence(e, core.Options{})
	leg.TotalMs = float64(time.Since(t0)) / float64(time.Millisecond)
	runtime.ReadMemStats(&after)
	leg.AllocBytes = after.TotalAlloc - before.TotalAlloc

	leg.AllocObjects = after.Mallocs - before.Mallocs

	if res != nil {
		leg.RankingMs = float64(res.RankingTime) / float64(time.Millisecond)
		leg.SCCMs = float64(res.SCCTime) / float64(time.Millisecond)
		leg.RankInfFastFail = res.RankInfinityFastFail
	}
	sp2 := e.SpaceStats()
	leg.PeakNodes = sp2.PeakLiveNodes
	leg.CacheHitRate = sp2.CacheHitRate
	if err != nil {
		leg.Err = err.Error()
		return leg, nil
	}
	leg.Verified = verify.StronglyStabilizing(e, res.Protocol).OK
	return leg, protocolKeys(res.Protocol)
}

// SymbolicBenchmark runs the before/after tuning benchmark over the case
// studies. quick shrinks the instances for CI smoke runs. Each leg is
// the minimum of three reps, interleaved across the legs (ref, tuned, ref,
// ...) so load drift on a shared machine hits every
// leg alike — the committed baseline should reflect the engine, not the
// scheduler. The synthesized protocol is deterministic, so any rep's
// keys serve for the cross-leg comparison.
func SymbolicBenchmark(opts BenchOpts) SymbolicBench {
	bench := SymbolicBench{
		Description: "symbolic engine: reference fixpoints and ranks (full-image trim, whole-set SCC grow and rank BFS, throwaway scratch, persistent-manager images) vs the tuned default (dead-group dropping, frontier grow and rank BFS, retained warm scratch manager for SCC and ranking/recovery images, balanced union trees, rank-infinity fast-fail); times are min-of-3 interleaved reps",
	}
	cfgs := []func(*symbolic.Engine){
		func(e *symbolic.Engine) { e.SetReferenceFixpoints(true); e.SetReferenceRanks(true) },
		nil,
	}
	legNames := [2]string{"reference", "tuned"}
	for _, c := range symbolicBenchCases(opts.Quick) {
		if !opts.keep(c.Name) {
			continue
		}
		row := SymbolicBenchRow{Name: c.Name}
		if e, err := symbolic.New(c.Spec); err == nil {
			row.States = e.States(e.Universe())
			row.Groups = len(e.ActionGroups()) + len(e.CandidateGroups())
		}
		var legs [2]SymbolicLeg
		var keys [2][]protocol.Key
		for r := 0; r < 3; r++ {
			for i, cfg := range cfgs {
				stop := opts.startCPU(c.Name+"."+legNames[i], r == 0)
				leg, k := runSymbolicLeg(c.Spec, cfg)
				stop()
				opts.writeMem(c.Name+"."+legNames[i], r == 0)
				if r == 0 || (leg.Err == "" && leg.TotalMs < legs[i].TotalMs) {
					legs[i], keys[i] = leg, k
				}
			}
		}
		row.Reference, row.Tuned = legs[0], legs[1]
		if row.Tuned.TotalMs > 0 {
			row.Speedup = row.Reference.TotalMs / row.Tuned.TotalMs
		}
		row.ProtocolsMatch = keys[0] != nil && sameKeys(keys[0], keys[1])
		bench.Cases = append(bench.Cases, row)
	}
	return bench
}
