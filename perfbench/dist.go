package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strings"
	"time"

	"stsyn"
	"stsyn/internal/dist"
	"stsyn/internal/service"
)

// distWorkers is the loopback fleet: stsyn-serve workers with one
// synthesis worker each, driven by a coordinator with two shards in
// flight.
const distWorkers = 2

// distSession is a coordinator, its worker fleet and the seeded job list.
type distSession struct {
	workers []*service.Server
	servers []*server
	hc      *http.Client
	pool    *http.Transport
	coord   *dist.Coordinator
	jobs    []distJob
	seed    int64
	records map[string]*jobRecord
}

// jobRecord is what the timed rounds saw of one job, for the reference
// check after them.
type jobRecord struct {
	job  distJob
	seen []jobSeen
	ref  *searchRef
}

type jobSeen struct {
	rc     *roundCtx
	opIdx  int
	res    *dist.JobResult
	noWin  bool
	errMsg string
}

func distWorkload() *workload {
	// records collects every round's job outcomes for the check after the
	// timed rounds.
	records := map[string]*jobRecord{}
	return &workload{
		sequential: true,
		check:      func([]*roundCtx) error { return checkDist(records) },
		finishLayers: func(traced []*roundCtx, into map[string]float64) {
			distFinish(traced, into)
			// Every round runs each job once.
			for _, rec := range records {
				if rec.ref != nil {
					into["core.fastfail"] += float64(rec.ref.fastFail)
				}
			}
		},
		setup: func(seed int64, tr *tracer) (session, error) {
			s := &distSession{seed: seed, jobs: genDistJobs(seed, lateWinners(expectedDigests)), records: records}
			var urls []string
			for i := 0; i < distWorkers; i++ {
				w := service.New(service.Config{Workers: 1})
				s.workers = append(s.workers, w)
				srv, err := startServer(timedHandler(tr, layerWorker, false, w.Handler()))
				if err != nil {
					s.close()
					return nil, err
				}
				s.servers = append(s.servers, srv)
				urls = append(urls, srv.base)
			}
			s.hc, s.pool = newHTTPClient()
			dc, err := dist.NewClient(dist.ClientConfig{Workers: urls, HTTPClient: s.hc})
			if err != nil {
				s.close()
				return nil, err
			}
			if s.coord, err = dist.NewCoordinator(dist.Config{Client: dc, Concurrency: distWorkers}); err != nil {
				s.close()
				return nil, err
			}
			for _, u := range urls {
				if err := waitHealthy(s.hc, u); err != nil {
					s.close()
					return nil, err
				}
			}
			warm := dist.Job{Request: warmSpec.request(), Source: dist.ScheduleSource{Kind: "rotations"}}
			if _, err := s.coord.Run(context.Background(), warm); err != nil {
				s.close()
				return nil, fmt.Errorf("warm-up: %w", err)
			}
			return s, nil
		},
	}
}

func (s *distSession) close() error {
	var err error
	for _, srv := range s.servers {
		if serr := srv.stop(); err == nil {
			err = serr
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, w := range s.workers {
		if serr := w.Shutdown(ctx); err == nil {
			err = serr
		}
	}
	if s.pool != nil {
		s.pool.CloseIdleConnections()
	}
	return err
}

// run executes the job list one job at a time, as successive stsyn-dist
// invocations would, in a seeded order that changes every round.
func (s *distSession) run(rc *roundCtx) error {
	traced := rc.tr != nil
	var before []map[string]float64
	var g0 goStats
	if traced {
		for _, srv := range s.servers {
			m, err := scrape(s.hc, srv.base)
			if err != nil {
				return err
			}
			before = append(before, m)
		}
		g0 = readGoStats()
	}
	c0 := coordCounts(s.coord.Metrics())
	cpu0 := processCPU()
	t0 := time.Now()
	for _, i := range roundOrder(s.seed, rc.index, len(s.jobs)) {
		j := s.jobs[i]
		id, end := rc.tr.begin(layerOp, 0, "", j.name)
		jcpu := processCPU()
		jt := time.Now()
		res, err := s.coord.Run(withSpan(context.Background(), id), j.job)
		d := time.Since(jt)
		cpu := processCPU() - jcpu
		end()
		seen := jobSeen{rc: rc, res: res}
		switch {
		case errors.Is(err, dist.ErrNoWinner):
			seen.noWin = true
		case err != nil:
			seen.errMsg = err.Error()
		}
		seen.opIdx = rc.record(op{key: j.name, ms: ms(d), cpuMS: ms(cpu), failed: seen.errMsg != ""})
		if seen.errMsg != "" {
			rc.fail("%s: %s", j.name, seen.errMsg)
		}
		rec := s.records[j.name]
		if rec == nil {
			rec = &jobRecord{job: j}
			s.records[j.name] = rec
		}
		rec.seen = append(rec.seen, seen)
	}
	rc.wall = time.Since(t0)
	rc.cpu = processCPU() - cpu0
	if !traced {
		return nil
	}
	g0.add(rc.layers, readGoStats())
	l := rc.layers
	for name, v := range coordCounts(s.coord.Metrics()) {
		l[name] = v - c0[name]
	}
	var hits, misses float64
	for i, srv := range s.servers {
		after, err := scrape(s.hc, srv.base)
		if err != nil {
			return err
		}
		hits += after["stsyn_prune_memo_hits_total"] - before[i]["stsyn_prune_memo_hits_total"]
		misses += after["stsyn_prune_memo_misses_total"] - before[i]["stsyn_prune_memo_misses_total"]
	}
	if hits+misses > 0 {
		l["prune.memo_hit_ratio"] = hits / (hits + misses)
	}
	return nil
}

// coordCounts reads the coordinator's counters. They are the ones
// JobResult.Stats reports per job, but they also count the searches that
// end without a winner, for which Run returns no result.
func coordCounts(m *dist.Metrics) map[string]float64 {
	return map[string]float64{
		"dist.requests":          float64(m.RequestsTotal.Load()),
		"dist.schedules_tried":   float64(m.SchedulesTried.Load()),
		"dist.shards_cancelled":  float64(m.ShardsCancelled.Load()),
		"dist.requeues":          float64(m.ShardRequeues.Load()),
		"prune.schedules_pruned": float64(m.SchedulesPruned.Load()),
	}
}

// checkDist compares every job's outcome with an in-process
// core.TrySchedules over the same schedules: the same winning schedule
// (and, unpruned, the same index), a verified winner rendering the
// protocol the reference renders and digests.json commits — or no winner
// on both sides.
func checkDist(records map[string]*jobRecord) error {
	for _, name := range sortedKeys(records) {
		rec := records[name]
		ref, err := referenceSearch(rec.job)
		if err != nil {
			return fmt.Errorf("reference search for %s: %w", name, err)
		}
		rec.ref = ref
		for _, seen := range rec.seen {
			if seen.errMsg != "" {
				continue // already failed
			}
			if msg := compareSearch(rec.job, ref, seen); msg != "" {
				seen.rc.mu.Lock()
				seen.rc.ops[seen.opIdx].failed = true
				seen.rc.mu.Unlock()
				seen.rc.fail("check: %s: %s", name, msg)
			}
		}
	}
	return nil
}

// searchRef is the in-process reference outcome of one job.
type searchRef struct {
	win      bool
	index    int
	schedule []int
	digest   string
	// fastFail sums Result.RankInfinityFastFail over the failing
	// schedules: the core's count for them, which the workers' 422
	// answers do not carry.
	fastFail int
}

func referenceSearch(j distJob) (*searchRef, error) {
	scheds := schedulesOf(j)
	factory := func() (stsyn.Engine, error) { return stsyn.NewEngine(mustBuild(j.spec)) }
	best, attempts, err := stsyn.TrySchedules(factory, stsyn.Options{}, scheds, runtime.GOMAXPROCS(0))
	fastFail := 0
	for _, a := range attempts {
		if a.Err != nil && a.Result != nil {
			fastFail += a.Result.RankInfinityFastFail
		}
	}
	if err != nil {
		return &searchRef{fastFail: fastFail}, nil
	}
	ref := &searchRef{win: true, schedule: best.Schedule, fastFail: fastFail}
	for i := range attempts {
		if &attempts[i] == best {
			ref.index = i
		}
	}
	o, err := runCLI(cliCase{spec: j.spec, engine: "auto"}, best.Schedule, nil, 0, false)
	if err != nil {
		return nil, err
	}
	if !o.verified {
		return nil, fmt.Errorf("reference winner %v does not verify", best.Schedule)
	}
	ref.digest = digest(o.resp.Actions)
	return ref, nil
}

func compareSearch(j distJob, ref *searchRef, seen jobSeen) string {
	if !ref.win {
		if !seen.noWin {
			return "coordinator found a winner, TrySchedules finds none"
		}
		return ""
	}
	if seen.noWin || seen.res == nil || seen.res.Winner == nil {
		return fmt.Sprintf("coordinator found no winner, TrySchedules wins with %v", ref.schedule)
	}
	res := seen.res
	switch {
	case !equalInts(res.WinSchedule, ref.schedule):
		return fmt.Sprintf("winner %v, TrySchedules %v", res.WinSchedule, ref.schedule)
	case !j.prune && res.WinIndex != ref.index:
		return fmt.Sprintf("winner index %d, TrySchedules %d", res.WinIndex, ref.index)
	case !res.Winner.Verified:
		return "winner not verified"
	}
	d := digest(res.Winner.Actions)
	if d != ref.digest {
		return fmt.Sprintf("winner digest %s, TrySchedules renders %s", d, ref.digest)
	}
	if want := expectedDigests[scheduleKey(j.spec, ref.schedule)]; d != want {
		return fmt.Sprintf("winner digest %s, committed %q", d, want)
	}
	return ""
}

// distFinish computes the per-prune-flag job geomeans and the fleet's
// overhead across the traced rounds.
func distFinish(traced []*roundCtx, into map[string]float64) {
	byFlag := map[string]map[string][]float64{"prune": {}, "noprune": {}}
	var ratios []float64
	for _, rc := range traced {
		for _, o := range rc.ops {
			if o.failed {
				continue
			}
			flag := "noprune"
			if strings.HasSuffix(o.key, "/prune") {
				flag = "prune"
			}
			byFlag[flag][o.key] = append(byFlag[flag][o.key], o.ms)
		}
		if w := ms(rc.wall); w > 0 {
			ratios = append(ratios, 1-rc.layers["dist.worker_busy_ms"]/(w*distWorkers))
		}
	}
	for _, flag := range []string{"prune", "noprune"} {
		meds, _ := perKeyMedians(byFlag[flag])
		into["dist.job_ms_geomean."+flag], _ = geomean(meds)
	}
	into["dist.overhead_ratio"], _ = median(ratios)
}
