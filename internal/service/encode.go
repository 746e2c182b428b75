// Package service is the synthesis-as-a-service subsystem: an HTTP/JSON
// API over the synthesizer with a bounded job queue, a content-addressed
// result cache, and a metrics endpoint. Synthesis is an expensive, pure
// computation — the same specification and options always produce the same
// protocol — so repeated queries are served from the cache in microseconds
// while fresh ones run on a worker pool with per-job deadlines.
//
// The package also owns the one JSON encoding of a synthesis result shared
// by the server and the stsyn CLI's -json flag, so the two never drift. The
// wire types themselves live in pkg/stsynapi — the published contract the
// client package builds on — and are aliased here so server-side code (and
// existing callers) keep their service.Request / service.Response spelling.
package service

import (
	"fmt"
	"strings"

	"stsyn/internal/cli"
	"stsyn/internal/core"
	"stsyn/internal/explicit"
	"stsyn/internal/gcl"
	"stsyn/internal/pretty"
	"stsyn/internal/protocol"
	"stsyn/pkg/stsynapi"
	"stsyn/pkg/stsynerr"
)

// The wire contract, re-exported from pkg/stsynapi. These are aliases, not
// copies: the server and the published client cannot drift.
type (
	// Request is a synthesis job: either a built-in protocol by name (with
	// its parameters) or an inline .stsyn guarded-command specification.
	Request = stsynapi.Request
	// Response is the result of a synthesis job — the encoding shared by
	// the service and the stsyn CLI's -json flag.
	Response = stsynapi.Response
	// Command is one rendered guarded command of the synthesized protocol.
	Command = stsynapi.Command
	// ProcessResult is the synthesized actions of one process.
	ProcessResult = stsynapi.ProcessResult
	// Timings are the synthesis time measurements in milliseconds.
	Timings = stsynapi.Timings
	// BDDStats is the symbolic engine's substrate statistics.
	BDDStats = stsynapi.BDDStats
	// ExplicitStats is the explicit engine's kernel stats.
	ExplicitStats = stsynapi.ExplicitStats
	// PruneStats is one job's symmetry-pruning activity.
	PruneStats = stsynapi.PruneStats
)

// explicitStats snapshots the explicit engine's kernel counters, or returns
// nil for other engines.
func explicitStats(e core.Engine) *ExplicitStats {
	ee, ok := e.(*explicit.Engine)
	if !ok {
		return nil
	}
	ks := ee.KernelStats()
	return &ExplicitStats{
		PreOps:     ks.PreCalls,
		PostOps:    ks.PostCalls,
		GroupTests: ks.GroupTests,
	}
}

// bddStats snapshots an engine's substrate statistics, or returns nil for
// engines without a SpaceReporter.
func bddStats(e core.Engine) *BDDStats {
	sr, ok := e.(core.SpaceReporter)
	if !ok {
		return nil
	}
	st := sr.SpaceStats()
	return &BDDStats{
		LiveNodes:       st.LiveNodes,
		PeakLiveNodes:   st.PeakLiveNodes,
		AllocatedSlots:  st.AllocatedSlots,
		UniqueTableLoad: st.UniqueTableLoad,
		CacheSize:       st.CacheSize,
		CacheHits:       st.CacheHits,
		CacheMisses:     st.CacheMisses,
		CacheEvictions:  st.CacheEvictions,
		CacheHitRate:    st.CacheHitRate,
		GCRuns:          st.GCRuns,
		GCReclaimed:     st.GCReclaimed,
	}
}

// BuildSpec resolves a request to a protocol specification: a built-in by
// name, or a parsed inline .stsyn spec. An unknown built-in name (or bad
// parameters for one) is a semantic error and carries status 422; the
// structural failures — both fields, neither field, unparsable inline spec
// — are left to the caller's 400 fallback.
func BuildSpec(req *Request) (*protocol.Spec, error) {
	switch {
	case req.Protocol != "" && req.Spec != "":
		return nil, fmt.Errorf("protocol and spec are mutually exclusive")
	case req.Protocol != "":
		k, dom := req.K, req.Dom
		if k == 0 {
			k = 4
		}
		if dom == 0 {
			dom = 3
		}
		sp, err := buildBuiltin(req.Protocol, k, dom)
		if err != nil {
			return nil, stsynerr.Wrap(stsynerr.InvalidSpec, "unknown protocol", err)
		}
		return sp, nil
	case req.Spec != "":
		sp, err := gcl.Parse("request", req.Spec)
		if err != nil {
			return nil, stsynerr.Wrap(stsynerr.InvalidSpec, "spec does not parse", err)
		}
		return sp, nil
	default:
		return nil, fmt.Errorf("need protocol (built-in name) or spec (inline .stsyn source)")
	}
}

// buildBuiltin calls the CLI's built-in constructor, converting the
// panics its protocol constructors use for parameter validation (fine for
// the CLI, fatal for a serving goroutine) into ordinary errors.
func buildBuiltin(name string, k, dom int) (sp *protocol.Spec, err error) {
	defer func() {
		if r := recover(); r != nil {
			sp, err = nil, fmt.Errorf("%v", r)
		}
	}()
	return cli.BuildSpec(name, k, dom)
}

// Job is a fully normalized synthesis job: the specification, resolved
// engine, options and cache key. Normalizing before anything else makes
// equivalent requests (e.g. engine "auto" vs. its resolution, or an empty
// vs. explicit default schedule) hit the same cache entry.
type Job struct {
	Spec        *protocol.Spec
	Engine      string // "explicit" or "symbolic" (auto resolved)
	Convergence core.Convergence
	Schedule    []int // always a concrete permutation
	Resolution  core.CycleResolution
	Fanout      bool
	Prune       bool
	Key         string // content-addressed cache key

	// Deprecated: SCC is ignored, as each engine has one SCC algorithm.
	// It stays for one release so existing callers keep compiling.
	SCC string
}

// Normalize validates a request against its specification and resolves
// every defaulted option. Every front end — the server, the stsyn CLI and
// the dist coordinator — checks its options here.
func Normalize(req *Request, sp *protocol.Spec) (*Job, error) {
	j := &Job{Spec: sp, Fanout: req.Fanout}

	var err error
	if j.Engine, err = cli.ResolveEngine(req.Engine, sp); err != nil {
		return nil, err
	}

	switch strings.ToLower(req.Convergence) {
	case "", "strong":
		j.Convergence = core.Strong
	case "weak":
		j.Convergence = core.Weak
	default:
		return nil, fmt.Errorf("unknown convergence %q (want strong or weak)", req.Convergence)
	}

	switch strings.ToLower(req.Resolution) {
	case "", "batch":
		j.Resolution = core.BatchResolution
	case "incremental":
		j.Resolution = core.IncrementalResolution
	default:
		return nil, fmt.Errorf("unknown resolution %q (want batch or incremental)", req.Resolution)
	}

	j.Prune = req.Prune
	if j.Prune && j.Resolution != core.BatchResolution {
		return nil, fmt.Errorf("prune requires batch resolution: incremental cycle resolution is not equivariant under the symmetry group")
	}

	if req.Fanout && len(req.Schedule) > 0 {
		return nil, fmt.Errorf("fanout and schedule are mutually exclusive")
	}
	var sched []int // nil (also for an empty list) selects the default
	if len(req.Schedule) > 0 {
		sched = append(sched, req.Schedule...)
	}
	if j.Schedule, err = core.NormalizeSchedule(sched, len(sp.Procs)); err != nil {
		return nil, err
	}

	j.Key = CanonicalKey(j)
	return j, nil
}

// Options builds the synthesis options of the job; ctx bounds the run.
func (j *Job) Options() core.Options {
	return core.Options{
		Convergence:     j.Convergence,
		Schedule:        j.Schedule,
		CycleResolution: j.Resolution,
	}
}

// EncodeResult renders a synthesis result into the shared response
// encoding. verified is the model checker's verdict on the result.
func EncodeResult(e core.Engine, res *core.Result, j *Job, verified bool) *Response {
	sp := e.Spec()
	out := &Response{
		Protocol:             sp.Name,
		Engine:               j.Engine,
		Convergence:          j.Convergence.String(),
		Schedule:             j.Schedule,
		Processes:            len(sp.Procs),
		Variables:            len(sp.Vars),
		States:               e.States(e.Universe()),
		Pass:                 res.PassCompleted,
		MaxRank:              res.MaxRank(),
		AddedGroups:          len(res.Added),
		RemovedGroups:        len(res.Removed),
		RankInfinityFastFail: res.RankInfinityFastFail,
		ProgramSize:          res.ProgramSize,
		SCCCount:             res.SCCCount,
		AvgSCCSize:           res.AvgSCCSize,
		Timings: Timings{
			TotalMS:   float64(res.TotalTime.Microseconds()) / 1e3,
			RankingMS: float64(res.RankingTime.Microseconds()) / 1e3,
			SCCMS:     float64(res.SCCTime.Microseconds()) / 1e3,
		},
		Verified: verified,
		BDD:      bddStats(e),
		Explicit: explicitStats(e),
	}
	byProc := make(map[int][]protocol.Group)
	for _, g := range res.Protocol {
		pg := g.ProtocolGroup()
		byProc[pg.Proc] = append(byProc[pg.Proc], pg)
	}
	for pi := range sp.Procs {
		pr := ProcessResult{Name: sp.Procs[pi].Name, Commands: []Command{}}
		for _, c := range pretty.Process(sp, pi, byProc[pi]) {
			pr.Commands = append(pr.Commands, Command{Guard: c.Guard, Effect: c.Effect, Groups: c.Groups})
		}
		out.Actions = append(out.Actions, pr)
	}
	return out
}
