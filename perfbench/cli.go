package main

import (
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"stsyn"
	"stsyn/internal/cli"
	"stsyn/internal/explicit"
	"stsyn/internal/protocol"
	"stsyn/internal/service"
)

// spec names one built-in protocol instance the way cli.BuildSpec takes it.
type spec struct {
	proto  string
	k, dom int
}

// key is the spec's name in digests.json and in the output.
func (s spec) key() string {
	switch s.proto {
	case "tokenring", "dijkstra":
		return fmt.Sprintf("%s-%d-%d", s.proto, s.k, s.dom)
	case "tworing":
		return "tworing"
	default:
		return fmt.Sprintf("%s-%d", s.proto, s.k)
	}
}

func (s spec) build() (*protocol.Spec, error) { return cli.BuildSpec(s.proto, s.k, s.dom) }

// cliCase is one stsyn invocation: a spec and the -engine flag.
type cliCase struct {
	spec
	engine string // "auto" or "symbolic"
	want   string // the engine auto must resolve to ("" when forced)
}

func (c cliCase) name() string {
	if c.engine == "symbolic" {
		return c.key() + "/symbolic"
	}
	return c.key()
}

// cliCases is the cli-sweep case list. The explicit half spans SCC-rich
// graphs (matching, two-ring), an image-heavy graph without SCCs
// (coloring) and the explicit SCC switch: coloring-12 is the one
// default-path case above the engine's forward-backward threshold. The
// symbolic half holds the two coloring sizes auto sends to the symbolic
// engine, then the cases the CLI documents with -engine symbolic, where
// symbolic SCC enumeration dominates.
var cliCases = []cliCase{
	{spec{"tokenring", 5, 4}, "auto", "explicit"},
	{spec{"matching", 8, 0}, "auto", "explicit"},
	{spec{"matching", 9, 0}, "auto", "explicit"},
	{spec{"coloring", 11, 0}, "auto", "explicit"},
	{spec{"coloring", 12, 0}, "auto", "explicit"},
	{spec{"tworing", 4, 3}, "auto", "explicit"},
	{spec{"coloring", 13, 0}, "auto", "symbolic"},
	{spec{"coloring", 15, 0}, "auto", "symbolic"},
	{spec{"tokenring", 5, 4}, "symbolic", ""},
	{spec{"matching", 6, 0}, "symbolic", ""},
	{spec{"matching", 7, 0}, "symbolic", ""},
}

// warmSpec is the smallest spec; set-up solves it once untimed on each
// engine.
var warmSpec = spec{"tokenring", 3, 3}

// cliOutput is what one stsyn -json invocation produced, with the layer
// measurements the traced run reads.
type cliOutput struct {
	resp     *service.Response
	engine   string
	verified bool
	res      *stsyn.Result
	scc      struct{ calls, found int }
	kernel   *explicit.KernelStats
	space    *stsyn.SpaceStats
	passMS   [4]float64
}

// runCLI is the body of `stsyn -json` for one case: build the spec and the
// engine, add convergence, model-check the result and encode it. The
// schedule is the paper's default unless one is given. Spans go to tr
// under parent.
func runCLI(c cliCase, schedule []int, tr *tracer, parent int64, traced bool) (*cliOutput, error) {
	sp, err := c.build()
	if err != nil {
		return nil, err
	}
	_, end := tr.begin(layerBuild, parent, "", c.name())
	var e stsyn.Engine
	if c.engine == "symbolic" {
		e, err = stsyn.NewSymbolicEngine(sp)
	} else {
		e, err = stsyn.NewEngine(sp)
	}
	end()
	if err != nil {
		return nil, err
	}
	out := &cliOutput{engine: engineName(e)}
	opts := stsyn.Options{Schedule: schedule}
	var events []passEvent
	if traced {
		opts.Log = func(format string, args ...interface{}) {
			var p int
			if _, err := fmt.Sscanf(fmt.Sprintf(format, args...), "pass %d", &p); err == nil {
				events = append(events, passEvent{time.Now(), p})
			}
		}
	}
	_, end = tr.begin(layerSolve, parent, "", c.name())
	solveStart := time.Now()
	res, err := stsyn.AddConvergence(e, opts)
	end()
	if err != nil {
		return nil, err
	}
	out.res = res
	st := e.Stats() // read before verification adds its own SCC calls
	out.scc.calls, out.scc.found = st.SCCCalls, st.SCCCount
	if traced {
		out.passMS = passTimes(solveStart.Add(res.RankingTime), events)
	}

	_, end = tr.begin(layerVerify, parent, "", c.name())
	verdict := stsyn.VerifyStronglyStabilizing(e, res.Protocol)
	end()
	out.verified = verdict.OK

	_, end = tr.begin(layerEncode, parent, "", c.name())
	if schedule == nil {
		schedule = stsyn.DefaultSchedule(len(sp.Procs))
	}
	j := &service.Job{
		Spec:        sp,
		Engine:      out.engine,
		Convergence: opts.Convergence,
		Schedule:    schedule,
		Resolution:  opts.CycleResolution,
	}
	if out.engine == "explicit" {
		j.SCC = "auto"
	}
	out.resp = service.EncodeResult(e, res, j, verdict.OK)
	_, err = json.MarshalIndent(out.resp, "", "  ") // what stsyn -json prints
	end()
	if err != nil {
		return nil, err
	}
	if ee, ok := e.(*explicit.Engine); ok {
		ks := ee.KernelStats()
		out.kernel = &ks
	}
	if sr, ok := e.(stsyn.SpaceReporter); ok {
		ss := sr.SpaceStats()
		out.space = &ss
	}
	return out, nil
}

func engineName(e stsyn.Engine) string {
	if _, ok := e.(*explicit.Engine); ok {
		return "explicit"
	}
	return "symbolic"
}

// passEvent is one core log line naming its pass, with its arrival time.
type passEvent struct {
	at   time.Time
	pass int
}

// passTimes attributes the time from the end of ranking to the last logged
// event to passes 1–3: each event's interval since the previous one (or
// since the end of ranking) belongs to the event's pass. The core logs one
// event per candidate batch, so this is exact up to the batches that log
// nothing, which fold into the next logged interval.
func passTimes(rankEnd time.Time, events []passEvent) [4]float64 {
	var out [4]float64
	prev := rankEnd
	for _, ev := range events {
		if ev.pass >= 1 && ev.pass <= 3 && ev.at.After(prev) {
			out[ev.pass] += ms(ev.at.Sub(prev))
		}
		if ev.at.After(prev) {
			prev = ev.at
		}
	}
	return out
}

// cliSession is the sweep's set-up: its cases and round orders. The CLI has
// no server, so set-up is input generation plus an untimed warm-up solve on
// each engine.
type cliSession struct {
	cases []cliCase
	seed  int64
}

func cliWorkload() *workload {
	cases := cliCases
	return &workload{
		sequential:   true,
		finishLayers: cliFinish,
		setup: func(seed int64, tr *tracer) (session, error) {
			for _, c := range cases {
				if _, err := c.build(); err != nil {
					return nil, fmt.Errorf("%s: %w", c.name(), err)
				}
			}
			for _, engine := range []string{"auto", "symbolic"} {
				if _, err := runCLI(cliCase{spec: warmSpec, engine: engine}, nil, nil, 0, false); err != nil {
					return nil, fmt.Errorf("warm-up: %w", err)
				}
			}
			return &cliSession{cases: cases, seed: seed}, nil
		},
	}
}

// run times each case of the round from a collected heap, as a fresh stsyn
// process would start. The forced collection between cases is not timed.
func (s *cliSession) run(rc *roundCtx) error {
	traced := rc.tr != nil
	for _, i := range roundOrder(s.seed, rc.index, len(s.cases)) {
		c := s.cases[i]
		runtime.GC()
		var g0 goStats
		if traced {
			g0 = readGoStats()
		}
		cpu0 := processCPU()
		t0 := time.Now()
		opID, end := rc.tr.begin(layerOp, 0, "", c.name())
		out, err := runCLI(c, nil, rc.tr, opID, traced)
		end()
		d := time.Since(t0)
		cpu := processCPU() - cpu0
		rc.cpu += cpu
		rc.wall += d
		if traced {
			g0.add(rc.layers, readGoStats())
		}
		o := op{key: c.name(), ms: ms(d), cpuMS: ms(cpu)}
		if err != nil {
			o.failed = true
			rc.fail("%s: %v", c.name(), err)
		} else if msg := s.checkCase(c, out); msg != "" {
			o.failed = true
			rc.fail("%s: %s", c.name(), msg)
		}
		rc.record(o)
		if traced && err == nil {
			addCLILayers(rc.layers, out)
		}
	}
	return nil
}

// checkCase gates one output: it must pass the model checker, come from
// the engine the case is about, and render the committed protocol (both
// engines share one digest per spec).
func (s *cliSession) checkCase(c cliCase, out *cliOutput) string {
	switch {
	case !out.verified:
		return "model checker rejected the synthesized protocol"
	case c.want != "" && out.engine != c.want:
		return fmt.Sprintf("auto chose the %s engine, the case needs %s", out.engine, c.want)
	case c.engine == "symbolic" && out.engine != "symbolic":
		return "forced -engine symbolic ran " + out.engine
	}
	want, ok := expectedDigests[c.key()]
	if !ok {
		return "no committed digest"
	}
	if got := digest(out.resp.Actions); got != want {
		return fmt.Sprintf("protocol digest %s, committed %s", got, want)
	}
	return ""
}

func addCLILayers(l map[string]float64, out *cliOutput) {
	res := out.res
	rank, scc := ms(res.RankingTime), ms(res.SCCTime)
	l["core.ranking_ms"] += rank
	l["core.scc_ms"] += scc
	l["core.scc_calls"] += float64(out.scc.calls)
	l["core.sccs_found"] += float64(out.scc.found)
	l["core.passes_ms"] += ms(res.TotalTime) - rank - scc
	l["core.pass1_ms"] += out.passMS[1]
	l["core.pass2_ms"] += out.passMS[2]
	l["core.pass3_ms"] += out.passMS[3]
	l["core.fastfail"] += float64(res.RankInfinityFastFail)
	if k := out.kernel; k != nil {
		l["explicit.pre_calls"] += float64(k.PreCalls)
		l["explicit.post_calls"] += float64(k.PostCalls)
		l["explicit.group_tests"] += float64(k.GroupTests)
	}
	if sp := out.space; sp != nil {
		l["bdd.cache_lookups"] += float64(sp.CacheHits + sp.CacheMisses)
		l["bdd.cache_hits"] += float64(sp.CacheHits)
		l["bdd.peak_live_nodes"] = max(l["bdd.peak_live_nodes"], float64(sp.PeakLiveNodes))
		l["bdd.gc_runs"] += float64(sp.GCRuns)
		l["bdd.gc_reclaimed"] += float64(sp.GCReclaimed)
	}
}

// cliFinish turns the summed BDD cache hits into the hit rate.
func cliFinish(traced []*roundCtx, into map[string]float64) {
	var hits, lookups []float64
	for _, rc := range traced {
		hits = append(hits, rc.layers["bdd.cache_hits"])
		lookups = append(lookups, rc.layers["bdd.cache_lookups"])
	}
	h, _ := median(hits)
	l, _ := median(lookups)
	if l > 0 {
		into["bdd.cache_hit_rate"] = h / l
	}
	delete(into, "bdd.cache_hits")
}

func (s *cliSession) close() error { return nil }
