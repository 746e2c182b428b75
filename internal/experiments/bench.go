package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	"stsyn/internal/core"
	"stsyn/internal/explicit"
	"stsyn/internal/protocol"
	"stsyn/internal/protocols"
	"stsyn/internal/symbolic"
	"stsyn/internal/verify"
)

// The engine ledger: one synthesis workload per case study, run on an
// engine in its default configuration. The committed BENCH_explicit.json
// and BENCH_symbolic.json are generated from these documents
// (`stsyn-bench -json [-engine symbolic]` / scripts/bench.sh).

// benchReps is the number of runs per case; a row records the fastest.
const benchReps = 3

// BenchLeg is one measured synthesis run.
type BenchLeg struct {
	TotalMs         float64 `json:"total_ms"`
	RankingMs       float64 `json:"ranking_ms"`
	SCCMs           float64 `json:"scc_ms"`
	AllocBytes      uint64  `json:"alloc_bytes"`
	AllocObjects    uint64  `json:"alloc_objects"`
	RankInfFastFail int     `json:"rank_infinity_fastfail"`
	PeakNodes       int     `json:"peak_nodes,omitempty"`     // BDD engines only
	CacheHitRate    float64 `json:"cache_hit_rate,omitempty"` // BDD engines only
	Verified        bool    `json:"verified"`
	// Digest fingerprints the synthesized protocol (see protocolDigest).
	// It does not depend on the engine, so two documents that share a
	// case must agree on it.
	Digest string `json:"digest,omitempty"`
	Err    string `json:"err,omitempty"`
}

// Host records the machine a row was measured on.
type Host struct {
	NProc int    `json:"nproc"`
	Go    string `json:"go"`
}

// BenchRow is one case study: the fastest of Reps runs, and how far the
// slowest lay above it.
type BenchRow struct {
	Name     string  `json:"name"`
	States   float64 `json:"states"`
	Groups   int     `json:"groups"`
	Host     Host    `json:"host"`
	Reps     int     `json:"reps"`
	SpreadMs float64 `json:"spread_ms"` // slowest minus fastest rep
	BenchLeg
}

// Bench is the document committed as BENCH_<engine>.json.
type Bench struct {
	Description string     `json:"description"`
	Engine      string     `json:"engine"`
	Cases       []BenchRow `json:"cases"`
}

type benchCase struct {
	Name string
	Spec *protocol.Spec
}

// benchEngines are the engines the ledger covers, with their case lists.
//
// Explicit: the four case studies, sized so the state spaces are large
// enough for the word-level kernels to matter.
//
// Symbolic: the small instances size so cycle detection dominates;
// coloring-11 and two-ring exercise the warm-scratch ranking/recovery
// images and the balanced union trees; coloring-13 (3^13 states) is the
// smallest instance engine "auto" hands to the symbolic engine, so one
// case runs where default traffic does. Quick mode drops two-ring, which
// takes about a minute per rep.
var benchEngines = map[string]struct {
	describe string
	build    func(*protocol.Spec) (core.Engine, error)
	cases    func(quick bool) []benchCase
}{
	"explicit": {
		describe: "explicit engine (word-level delta-shift kernels, trimmed Tarjan SCCs)",
		build:    func(sp *protocol.Spec) (core.Engine, error) { return explicit.New(sp, 0) },
		cases: func(quick bool) []benchCase {
			if quick {
				return []benchCase{
					{"token-ring-4-3", protocols.TokenRing(4, 3)},
					{"matching-6", protocols.Matching(6)},
					{"coloring-7", protocols.Coloring(7)},
					{"two-ring", protocols.TwoRingTokenRing()},
				}
			}
			return []benchCase{
				{"token-ring-5-4", protocols.TokenRing(5, 4)},
				{"matching-9", protocols.Matching(9)},
				{"coloring-11", protocols.Coloring(11)},
				{"two-ring", protocols.TwoRingTokenRing()},
			}
		},
	},
	"symbolic": {
		describe: "symbolic engine (write-cube clusters, retained scratch manager, skeleton SCCs)",
		build:    func(sp *protocol.Spec) (core.Engine, error) { return symbolic.New(sp) },
		cases: func(quick bool) []benchCase {
			if quick {
				return []benchCase{
					{"token-ring-4-3", protocols.TokenRing(4, 3)},
					{"matching-6", protocols.Matching(6)},
					{"coloring-7", protocols.Coloring(7)},
				}
			}
			return []benchCase{
				{"token-ring-4-3", protocols.TokenRing(4, 3)},
				{"token-ring-5-4", protocols.TokenRing(5, 4)},
				{"matching-6", protocols.Matching(6)},
				{"matching-7", protocols.Matching(7)},
				{"coloring-7", protocols.Coloring(7)},
				{"coloring-11", protocols.Coloring(11)},
				{"coloring-13", protocols.Coloring(13)},
				{"two-ring", protocols.TwoRingTokenRing()},
			}
		},
	},
}

// Benchmark runs the ledger for the named engine: every case benchReps
// times back to back, each row the fastest rep.
func Benchmark(engine string, opts BenchOpts) (Bench, error) {
	be, ok := benchEngines[engine]
	if !ok {
		return Bench{}, fmt.Errorf("unknown engine %q", engine)
	}
	bench := Bench{
		Description: be.describe + ": default configuration, fastest of " + fmt.Sprint(benchReps) +
			" reps per case with the spread over them, the host, and the synthesized protocol's digest",
		Engine: engine,
	}
	host := Host{NProc: runtime.NumCPU(), Go: runtime.Version()}
	for _, c := range be.cases(opts.Quick) {
		if !opts.keep(c.Name) {
			continue
		}
		row := BenchRow{Name: c.Name, Host: host, Reps: benchReps}
		if e, err := be.build(c.Spec); err == nil {
			row.States = e.States(e.Universe())
			row.Groups = len(e.ActionGroups()) + len(e.CandidateGroups())
		}
		legs := make([]BenchLeg, benchReps)
		for r := range legs {
			stop := opts.startCPU(c.Name, r == 0)
			legs[r] = runLeg(c.Spec, be.build)
			stop()
			opts.writeMem(c.Name, r == 0)
		}
		row.BenchLeg, row.SpreadMs = fastestRep(legs)
		bench.Cases = append(bench.Cases, row)
	}
	return bench, nil
}

// fastestRep folds the reps of one case into its row: the fastest rep and
// the spread above it. Synthesis is deterministic, so the row fails when
// any rep failed or when the reps disagree on the protocol, and it is
// verified only when every rep was.
func fastestRep(legs []BenchLeg) (BenchLeg, float64) {
	best, slowest, verified := legs[0], legs[0].TotalMs, true
	var digests []string
	for _, l := range legs {
		if l.Err != "" {
			return l, 0
		}
		if l.TotalMs < best.TotalMs {
			best = l
		}
		if l.TotalMs > slowest {
			slowest = l.TotalMs
		}
		verified = verified && l.Verified
		digests = append(digests, l.Digest)
	}
	best.Verified = verified
	for _, d := range digests {
		if d != digests[0] {
			best.Err = "reps synthesized different protocols: " + strings.Join(digests, " ")
			return best, 0
		}
	}
	return best, slowest - best.TotalMs
}

// runLeg builds a fresh engine, runs AddConvergence and returns the
// measured leg.
func runLeg(sp *protocol.Spec, build func(*protocol.Spec) (core.Engine, error)) BenchLeg {
	var leg BenchLeg
	e, err := build(sp)
	if err != nil {
		leg.Err = err.Error()
		return leg
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
	if sr, ok := e.(core.SpaceReporter); ok {
		st := sr.SpaceStats()
		leg.PeakNodes = st.PeakLiveNodes
		leg.CacheHitRate = st.CacheHitRate
	}
	if err != nil {
		leg.Err = err.Error()
		return leg
	}
	leg.Verified = verify.StronglyStabilizing(e, res.Protocol).OK
	leg.Digest = protocolDigest(protocolKeys(res.Protocol))
	return leg
}

// protocolDigest fingerprints a protocol by its sorted group keys: the
// first 8 bytes of their SHA-256, in hex.
func protocolDigest(keys []protocol.Key) string {
	h := sha256.New()
	for _, k := range keys {
		h.Write([]byte(k))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// protocolKeys returns the sorted group keys of a synthesized protocol.
func protocolKeys(gs []core.Group) []protocol.Key {
	keys := make([]protocol.Key, 0, len(gs))
	for _, g := range gs {
		keys = append(keys, g.Key())
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
