package experiments

import (
	"runtime"
	"sort"
	"time"

	"stsyn/internal/core"
	"stsyn/internal/explicit"
	"stsyn/internal/protocol"
	"stsyn/internal/protocols"
	"stsyn/internal/verify"
)

// The explicit-engine kernel benchmark: the same synthesis workload run
// twice on the explicit engine, once with the retained per-state reference
// scans (the pre-kernel engine) and once with the word-level delta-shift
// kernels. The committed BENCH_explicit.json baseline is generated from
// these rows (`stsyn-bench -json` / scripts/bench.sh).

// ExplicitLeg is one measured synthesis run.
type ExplicitLeg struct {
	TotalMs         float64 `json:"total_ms"`
	RankingMs       float64 `json:"ranking_ms"`
	SCCMs           float64 `json:"scc_ms"`
	AllocBytes      uint64  `json:"alloc_bytes"`
	AllocObjects    uint64  `json:"alloc_objects"`
	RankInfFastFail int     `json:"rank_infinity_fastfail"`
	Verified        bool    `json:"verified"`
	Err             string  `json:"err,omitempty"`
}

// ExplicitBenchRow is the before/after measurement for one case study.
type ExplicitBenchRow struct {
	Name   string  `json:"name"`
	States float64 `json:"states"`
	Groups int     `json:"groups"`

	Reference ExplicitLeg `json:"reference"` // per-state scans
	Kernel    ExplicitLeg `json:"kernel"`    // delta-shift kernels

	// Speedup is Reference.TotalMs / Kernel.TotalMs.
	Speedup float64 `json:"speedup"`
	// ProtocolsMatch reports that both legs synthesized the identical
	// protocol (same group keys) — the kernels must not change results.
	ProtocolsMatch bool `json:"protocols_match"`
}

// ExplicitBench is the document committed as BENCH_explicit.json.
type ExplicitBench struct {
	Description string             `json:"description"`
	Cases       []ExplicitBenchRow `json:"cases"`
}

// explicitBenchCases are the four case studies of the baseline, sized so
// the state spaces are large enough for the word-level kernels to matter.
func explicitBenchCases(quick bool) []struct {
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
			{"two-ring", protocols.TwoRingTokenRing()},
		}
	}
	return []struct {
		Name string
		Spec *protocol.Spec
	}{
		{"token-ring-5-4", protocols.TokenRing(5, 4)},
		{"matching-9", protocols.Matching(9)},
		{"coloring-11", protocols.Coloring(11)},
		{"two-ring", protocols.TwoRingTokenRing()},
	}
}

// protocolKeys returns the sorted group keys of a synthesized protocol.
func protocolKeys(gs []core.Group) []protocol.Key {
	keys := make([]protocol.Key, 0, len(gs))
	for _, g := range gs {
		keys = append(keys, g.ProtocolGroup().Key())
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

func sameKeys(a, b []protocol.Key) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// runExplicitLeg builds a fresh explicit engine, applies configure, runs
// AddConvergence and returns the measured leg plus the synthesized
// protocol's keys (nil on failure).
func runExplicitLeg(sp *protocol.Spec, configure func(*explicit.Engine)) (ExplicitLeg, []protocol.Key) {
	var leg ExplicitLeg
	e, err := explicit.New(sp, 0)
	if err != nil {
		leg.Err = err.Error()
		return leg, nil
	}
	configure(e)

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
	if err != nil {
		leg.Err = err.Error()
		return leg, nil
	}
	leg.Verified = verify.StronglyStabilizing(e, res.Protocol).OK
	return leg, protocolKeys(res.Protocol)
}

// ExplicitBenchmark runs the before/after kernel benchmark over the case
// studies. Both legs share the default rank scheme (frontier BFS,
// fast-fail), so the rows keep isolating the kernel speedup.
func ExplicitBenchmark(opts BenchOpts) ExplicitBench {
	bench := ExplicitBench{
		Description: "explicit engine: per-state reference scans vs word-level delta-shift kernels (same synthesis workload)",
	}
	for _, c := range explicitBenchCases(opts.Quick) {
		if !opts.keep(c.Name) {
			continue
		}
		row := ExplicitBenchRow{Name: c.Name}
		if e, err := explicit.New(c.Spec, 0); err == nil {
			row.States = e.States(e.Universe())
			row.Groups = len(e.ActionGroups()) + len(e.CandidateGroups())
		}
		var refKeys, kernKeys []protocol.Key
		profiled := func(leg string, cfg func(*explicit.Engine)) (ExplicitLeg, []protocol.Key) {
			stop := opts.startCPU(c.Name+"."+leg, true)
			l, k := runExplicitLeg(c.Spec, cfg)
			stop()
			opts.writeMem(c.Name+"."+leg, true)
			return l, k
		}
		row.Reference, refKeys = profiled("reference", func(e *explicit.Engine) {
			e.SetReferenceKernels(true)
		})
		row.Kernel, kernKeys = profiled("kernel", func(*explicit.Engine) {})
		if row.Kernel.TotalMs > 0 {
			row.Speedup = row.Reference.TotalMs / row.Kernel.TotalMs
		}
		row.ProtocolsMatch = refKeys != nil && sameKeys(refKeys, kernKeys)
		bench.Cases = append(bench.Cases, row)
	}
	return bench
}
