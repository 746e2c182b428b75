// Package experiments regenerates the paper's evaluation: the time and
// space sweeps of Figures 6-11 and the local-correctability summary of
// Figure 5 / Table 1. Each sweep runs the synthesizer on the symbolic
// engine (as STSyn does) and reports the same series the paper plots:
// ranking time, SCC-detection time, total time, average SCC size in BDD
// nodes and total program size in BDD nodes.
package experiments

import (
	"fmt"
	"time"

	"stsyn/internal/core"
	"stsyn/internal/protocol"
	"stsyn/internal/protocols"
	"stsyn/internal/symbolic"
	"stsyn/internal/verify"
)

// Row is one sweep measurement (one x-axis point of a figure).
type Row struct {
	K           int           // number of processes
	States      float64       // |Sp|
	RankingTime time.Duration // Figures 6, 8, 10
	SCCTime     time.Duration // Figures 6, 8, 10
	TotalTime   time.Duration // Figures 6, 8, 10
	AvgSCCSize  float64       // Figures 7, 9, 11 (BDD nodes)
	ProgramSize int           // Figures 7, 9, 11 (BDD nodes)
	SCCCount    int
	MaxRank     int
	Pass        int
	Verified    bool
	Err         string

	// Substrate observability (zero when the engine has no SpaceReporter).
	PeakNodes    int     // peak live BDD nodes over the run
	GCRuns       int     // scratch-manager drops during the run
	CacheHitRate float64 // op-cache hit rate
}

// runOne synthesizes one instance on a fresh symbolic engine and verifies
// the result.
func runOne(k int, sp *protocol.Spec) Row {
	row := Row{K: k}
	e, err := symbolic.New(sp)
	if err != nil {
		row.Err = err.Error()
		return row
	}
	row.States = e.States(e.Universe())
	res, err := core.AddConvergence(e, core.Options{})
	if res != nil {
		row.RankingTime = res.RankingTime
		row.SCCTime = res.SCCTime
		row.TotalTime = res.TotalTime
		row.AvgSCCSize = res.AvgSCCSize
		row.ProgramSize = res.ProgramSize
		row.SCCCount = res.SCCCount
		row.MaxRank = res.MaxRank()
		row.Pass = res.PassCompleted
	}
	if sr, ok := interface{}(e).(core.SpaceReporter); ok {
		st := sr.SpaceStats()
		row.PeakNodes = st.PeakLiveNodes
		row.GCRuns = st.GCRuns
		row.CacheHitRate = st.CacheHitRate
	}
	if err != nil {
		row.Err = err.Error()
		return row
	}
	row.Verified = verify.StronglyStabilizing(e, res.Protocol).OK
	return row
}

// MatchingSweep regenerates Figures 6 and 7: maximal matching for the given
// process counts (the paper sweeps K=5..11).
func MatchingSweep(ks []int) []Row {
	rows := make([]Row, 0, len(ks))
	for _, k := range ks {
		rows = append(rows, runOne(k, protocols.Matching(k)))
	}
	return rows
}

// ColoringSweep regenerates Figures 8 and 9: three coloring for the given
// process counts (the paper sweeps K=5..40 in steps of 5).
func ColoringSweep(ks []int) []Row {
	rows := make([]Row, 0, len(ks))
	for _, k := range ks {
		rows = append(rows, runOne(k, protocols.Coloring(k)))
	}
	return rows
}

// TokenRingSweep regenerates Figures 10 and 11: the token ring with a fixed
// domain (the paper uses |D|=4) for the given process counts.
func TokenRingSweep(ks []int, dom int) []Row {
	rows := make([]Row, 0, len(ks))
	for _, k := range ks {
		rows = append(rows, runOne(k, protocols.TokenRing(k, dom)))
	}
	return rows
}

// FormatRows renders a sweep as the two tables the corresponding figures
// plot (time series and space series).
func FormatRows(title string, rows []Row) string {
	out := fmt.Sprintf("%s\n", title)
	out += fmt.Sprintf("%4s %14s %12s %12s %12s %6s %5s %5s\n",
		"K", "states", "ranking", "scc", "total", "ranks", "pass", "ok")
	for _, r := range rows {
		if r.Err != "" {
			out += fmt.Sprintf("%4d %14.4g  FAILED: %s\n", r.K, r.States, r.Err)
			continue
		}
		out += fmt.Sprintf("%4d %14.4g %12s %12s %12s %6d %5d %5v\n",
			r.K, r.States,
			r.RankingTime.Round(time.Millisecond),
			r.SCCTime.Round(time.Millisecond),
			r.TotalTime.Round(time.Millisecond),
			r.MaxRank, r.Pass, r.Verified)
	}
	out += fmt.Sprintf("%4s %14s %14s %10s %10s %8s %8s\n",
		"K", "avg SCC (nodes)", "program (nodes)", "#SCCs", "peak", "gc", "hit%")
	for _, r := range rows {
		if r.Err != "" {
			continue
		}
		out += fmt.Sprintf("%4d %15.1f %15d %10d %10d %8d %7.0f%%\n",
			r.K, r.AvgSCCSize, r.ProgramSize, r.SCCCount,
			r.PeakNodes, r.GCRuns, 100*r.CacheHitRate)
	}
	return out
}
