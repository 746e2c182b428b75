package main

import (
	"math"
	"math/rand"
	"strings"

	"stsyn"
	"stsyn/internal/dist"
	"stsyn/internal/protocol"
	"stsyn/internal/service"
)

// Seeded input generators. The program sees only what these produce; a
// different seed gives a different list with the same class proportions,
// so a claim can be re-checked on a seed it was not tuned on.

// serviceCatalog is the service-mix spec catalog: small explicit-engine
// specs in rising order of cold-solve time, from about 0.2 ms to 50 ms on
// a 2-core host, spread densely enough that the tail percentile does not
// hinge on one spec. The order is also their popularity in the read
// phase: the cheapest spec is requested most.
var serviceCatalog = []spec{
	{"dijkstra", 3, 3}, {"dijkstra", 4, 3}, {"dijkstra", 3, 4}, {"tokenring", 4, 3},
	{"tokenring", 3, 4}, {"dijkstra3", 3, 0}, {"dijkstra", 4, 4}, {"tokenring", 3, 5},
	{"dijkstra3", 4, 0}, {"tokenring", 4, 4}, {"matching", 3, 0}, {"dijkstra", 3, 6},
	{"dijkstra", 4, 5}, {"dijkstra", 5, 4}, {"dijkstra3", 5, 0}, {"dijkstra", 3, 5},
	{"tokenring", 4, 5}, {"coloring", 3, 0}, {"coloring", 4, 0}, {"tokenring", 3, 6},
	{"coloring", 5, 0}, {"dijkstra", 4, 6}, {"coloring", 6, 0}, {"dijkstra", 5, 5},
	{"dijkstra3", 6, 0}, {"tokenring", 4, 6}, {"tokenring", 5, 4}, {"matching", 5, 0},
	{"dijkstra3", 7, 0}, {"coloring", 7, 0}, {"coloring", 8, 0}, {"matching", 6, 0},
	{"dijkstra", 5, 6}, {"dijkstra3", 8, 0}, {"coloring", 9, 0}, {"matching", 7, 0},
	{"tokenring", 5, 6}, {"coloring", 10, 0},
}

// The service-mix request list: about 70% sync, 20% async and 10% batches
// of 4, spread over mixTenants tenants so that per-tenant admission at the
// server's defaults (50/s, burst 100) never rejects a round.
const (
	mixSync    = 224
	mixAsync   = 64
	mixBatch   = 32
	batchSize  = 4
	mixTenants = 8
	// zipfS is the skew of the repeats: most repeats hit a few specs.
	zipfS = 1.1
)

// mixRequest is one request of the list: its class, the catalog indices
// it asks for (one, or batchSize for a batch) and its tenant.
type mixRequest struct {
	class  string // "sync", "async" or "batch"
	items  []int
	tenant int
}

// mixCounts returns how many read-phase items ask for each catalog spec:
// the items split over the catalog by a Zipf law over the catalog order.
// The counts do not depend on the seed, so a round costs the same whatever
// the seed; the seed decides the order.
func mixCounts(items int) []int {
	counts := make([]int, len(serviceCatalog))
	weights := make([]float64, len(serviceCatalog))
	total := 0.0
	for r := range weights {
		weights[r] = math.Pow(float64(r+1), -zipfS)
		total += weights[r]
	}
	assigned := 0
	for r, w := range weights {
		counts[r] = int(math.Floor(float64(items) * w / total))
		assigned += counts[r]
	}
	// Hand the rounding remainder to the most popular specs.
	for r := 0; assigned < items; r = (r + 1) % len(counts) {
		counts[r]++
		assigned++
	}
	return counts
}

// fillAsync reports whether the cache-fill request for catalog spec i is
// async: every fifth spec, so the async path polls real solves of every
// size.
func fillAsync(i int) bool { return i%5 == 2 }

// genServiceMix builds the request list in two phases.
//
// The cache-fill phase asks for every catalog spec once, most expensive
// first: the round's cold solves, which write the result cache. Its
// requests are fixed — sync, or async for fillAsync specs — so the slow
// end of the latency distribution is the same whatever the seed. Ending on
// the cheapest specs keeps short the solves still running when the read
// phase starts, during which a caller asking for the same spec solves it
// again.
//
// The read phase is a seeded shuffle of the remaining sync, async and
// batch slots, filled with the mixCounts repeats in a seeded order: cache
// hits, reads. Every request carries a seeded tenant.
func genServiceMix(seed int64) []mixRequest {
	rng := rand.New(rand.NewSource(seed))
	var out []mixRequest
	sync, async := mixSync, mixAsync
	for i := len(serviceCatalog) - 1; i >= 0; i-- {
		class := "sync"
		if fillAsync(i) {
			class = "async"
			async--
		} else {
			sync--
		}
		out = append(out, mixRequest{class: class, items: []int{i}})
	}

	classes := make([]string, 0, sync+async+mixBatch)
	for _, c := range []struct {
		name string
		n    int
	}{{"sync", sync}, {"async", async}, {"batch", mixBatch}} {
		for i := 0; i < c.n; i++ {
			classes = append(classes, c.name)
		}
	}
	rng.Shuffle(len(classes), func(i, j int) { classes[i], classes[j] = classes[j], classes[i] })

	var items []int
	for spec, n := range mixCounts(sync + async + mixBatch*batchSize) {
		for i := 0; i < n; i++ {
			items = append(items, spec)
		}
	}
	rng.Shuffle(len(items), func(i, j int) { items[i], items[j] = items[j], items[i] })

	next := 0
	for _, c := range classes {
		n := 1
		if c == "batch" {
			n = batchSize
		}
		out = append(out, mixRequest{class: c, items: items[next : next+n]})
		next += n
	}
	for i := range out {
		out[i].tenant = rng.Intn(mixTenants)
	}
	return out
}

func (s spec) request() service.Request {
	return service.Request{Protocol: s.proto, K: s.k, Dom: s.dom}
}

// The dist-search job classes: a search where every schedule fails (the
// whole space must be proven failing), one whose winner sits late in the
// list (every shard up to it runs), and one won by index 0 (speculative
// shards are cancelled). Each runs with prune on and off.
var (
	allFailSpec = spec{"matching", 4, 0}
	lateSpec    = spec{"tokenring", 4, 5}
	firstSpec   = spec{"coloring", 6, 0}
)

// lateTrailing is how many schedules follow the late winner.
const lateTrailing = 3

// distJob is one job of the list.
type distJob struct {
	name  string // class/prune, the job's key in the output
	spec  spec
	prune bool
	job   dist.Job
}

// genDistJobs draws the job list. winners are the late spec's winning
// schedules (from digests.json). The late-winner list is every failing
// schedule in lexicographic order, then lateTrailing+1 winners in a seeded
// order, so its cost hardly depends on the seed; the seed also orders the
// jobs.
func genDistJobs(seed int64, winners map[string]bool) []distJob {
	rng := rand.New(rand.NewSource(seed))
	var fail, win [][]int
	for _, s := range stsyn.AllSchedules(lateSpec.k) {
		if winners[scheduleKey(lateSpec, s)] {
			win = append(win, s)
		} else {
			fail = append(fail, s)
		}
	}
	rng.Shuffle(len(win), func(i, j int) { win[i], win[j] = win[j], win[i] })
	list := append(fail, win[:1+lateTrailing]...)

	var jobs []distJob
	for _, prune := range []bool{false, true} {
		suffix := "/noprune"
		if prune {
			suffix = "/prune"
		}
		for _, c := range []struct {
			class string
			spec  spec
			src   dist.ScheduleSource
		}{
			{"all-fail", allFailSpec, dist.ScheduleSource{Kind: "all"}},
			{"late-winner", lateSpec, dist.ScheduleSource{Kind: "list", List: list}},
			{"first-wins", firstSpec, dist.ScheduleSource{Kind: "all"}},
		} {
			req := c.spec.request()
			req.Prune = prune
			jobs = append(jobs, distJob{
				name:  c.class + suffix,
				spec:  c.spec,
				prune: prune,
				job:   dist.Job{Request: req, Source: c.src},
			})
		}
	}
	rng.Shuffle(len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })
	return jobs
}

func equalInts(a, b []int) bool {
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

// lateWinners returns the late spec's winning schedules recorded in the
// committed digests.
func lateWinners(expect map[string]string) map[string]bool {
	out := map[string]bool{}
	prefix := lateSpec.key() + "@"
	for k := range expect {
		if strings.HasPrefix(k, prefix) {
			out[k] = true
		}
	}
	return out
}

// schedulesOf expands a job's schedule source the way the coordinator
// streams it.
func schedulesOf(j distJob) [][]int {
	if j.job.Source.Kind == "list" {
		return j.job.Source.List
	}
	return stsyn.AllSchedules(len(mustBuild(j.spec).Procs))
}

func mustBuild(s spec) *protocol.Spec {
	sp, err := s.build()
	if err != nil {
		panic("perfbench: built-in spec " + s.key() + ": " + err.Error())
	}
	return sp
}
