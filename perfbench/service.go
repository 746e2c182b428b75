package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"stsyn/internal/service"
	"stsyn/pkg/client"
	"stsyn/pkg/stsynapi"
)

const (
	// mixClients is the number of closed-loop callers: each sends its next
	// request only when the previous one has been answered, as pkg/client
	// callers and the dist coordinator do.
	mixClients = 2
	// pollInterval is the fixed async polling interval, short next to the
	// cold solves so that it quantizes their latency little.
	pollInterval = time.Millisecond
)

// server is one loopback HTTP server the harness started.
type server struct {
	hs   *http.Server
	base string
	done chan error
}

func startServer(h http.Handler) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{hs: &http.Server{Handler: h}, base: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { s.done <- s.hs.Serve(ln) }()
	return s, nil
}

// stop closes the server and waits for its Serve goroutine. The round is
// over, so connections are closed at once rather than drained: requests
// the coordinator cancelled may still be winding down on a worker, and
// the service's own Shutdown waits for those jobs.
func (s *server) stop() error {
	err := s.hs.Close()
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// waitHealthy polls /healthz until it answers 200.
func waitHealthy(hc *http.Client, base string) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := hc.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s/healthz did not answer 200 within 10s (last error %v)", base, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// scrape reads the counters of a server's /metrics exposition.
func scrape(hc *http.Client, base string) (map[string]float64, error) {
	resp, err := hc.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 2 {
			continue
		}
		if v, err := strconv.ParseFloat(f[1], 64); err == nil {
			out[f[0]] = v
		}
	}
	return out, sc.Err()
}

// newHTTPClient returns a client with its own connection pool that stamps
// the caller's op span on every request.
func newHTTPClient() (*http.Client, *http.Transport) {
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.MaxIdleConnsPerHost = 16
	return &http.Client{Transport: spanTransport{t}}, t
}

// serviceSession is one stsyn-serve instance with default configuration,
// its callers and the seeded request list.
type serviceSession struct {
	srv     *service.Server
	http    *server
	hc      *http.Client
	pool    *http.Transport
	clients []*client.Client // one per tenant
	reqs    []mixRequest
}

func serviceWorkload() *workload {
	return &workload{
		setup: func(seed int64, tr *tracer) (session, error) {
			s := &serviceSession{reqs: genServiceMix(seed)}
			s.srv = service.New(service.Config{})
			var err error
			if s.http, err = startServer(timedHandler(tr, layerHandler, true, s.srv.Handler())); err != nil {
				return nil, err
			}
			s.hc, s.pool = newHTTPClient()
			for t := 0; t < mixTenants; t++ {
				c, err := client.New(client.Config{
					Endpoints:   []string{s.http.base},
					HTTPClient:  s.hc,
					Tenant:      fmt.Sprintf("tenant-%d", t),
					MaxAttempts: 1, // a rejection must surface, not be retried away
				})
				if err != nil {
					s.close()
					return nil, err
				}
				s.clients = append(s.clients, c)
			}
			if err := waitHealthy(s.hc, s.http.base); err != nil {
				s.close()
				return nil, err
			}
			warm := warmSpec.request()
			if _, err := s.clients[0].Synthesize(context.Background(), &warm); err != nil {
				s.close()
				return nil, fmt.Errorf("warm-up: %w", err)
			}
			return s, nil
		},
	}
}

func (s *serviceSession) close() error {
	var err error
	if s.http != nil {
		err = s.http.stop()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if serr := s.srv.Shutdown(ctx); err == nil {
		err = serr
	}
	if s.pool != nil {
		s.pool.CloseIdleConnections()
	}
	return err
}

// item is one synthesis answer within a request.
type item struct {
	spec int
	resp *stsynapi.Response
	err  error
}

// reqResult is one answered request of the list.
type reqResult struct {
	req   mixRequest
	ms    float64
	items []item
	polls int
	// asyncMS is the job's server-side age at its terminal poll.
	asyncMS float64
	// batchHits is the batch's count of unique cache hits.
	batchHits int
}

func (s *serviceSession) run(rc *roundCtx) error {
	traced := rc.tr != nil
	var before map[string]float64
	var g0 goStats
	if traced {
		var err error
		if before, err = scrape(s.hc, s.http.base); err != nil {
			return err
		}
		g0 = readGoStats()
	}
	results := make([]reqResult, len(s.reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	cpu0 := processCPU()
	t0 := time.Now()
	for c := 0; c < mixClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(s.reqs) {
					return
				}
				results[i] = s.do(rc.tr, s.reqs[i])
			}
		}()
	}
	wg.Wait()
	rc.wall = time.Since(t0)
	rc.cpu = processCPU() - cpu0
	if traced {
		g0.add(rc.layers, readGoStats())
	}

	failed := s.check(rc, results)
	for i, r := range results {
		rc.record(op{key: strconv.Itoa(i), ms: r.ms, failed: failed[i]})
	}
	if !traced {
		return nil
	}
	after, err := scrape(s.hc, s.http.base)
	if err != nil {
		return err
	}
	delta := func(name string) float64 { return after[name] - before[name] }
	serviceLayers(rc, results, delta)
	return nil
}

// do sends one request of the list through the tenant's client and waits
// for its answer (async jobs are polled to a terminal state).
func (s *serviceSession) do(tr *tracer, r mixRequest) reqResult {
	c := s.clients[r.tenant]
	id, end := tr.begin(layerOp, 0, "", r.class)
	ctx := withSpan(context.Background(), id)
	out := reqResult{req: r}
	t0 := time.Now()
	switch r.class {
	case "sync":
		req := serviceCatalog[r.items[0]].request()
		resp, err := c.Synthesize(ctx, &req)
		out.items = []item{{r.items[0], resp, err}}
	case "async":
		req := serviceCatalog[r.items[0]].request()
		js, err := c.SubmitJob(ctx, &req)
		for err == nil && !terminal(js.State) {
			time.Sleep(pollInterval)
			js, err = c.Job(ctx, js.ID)
			out.polls++
		}
		it := item{spec: r.items[0], err: err}
		if err == nil {
			out.asyncMS = js.ElapsedMS
			if js.State == stsynapi.JobDone {
				it.resp = js.Response
			} else {
				it.err = fmt.Errorf("job ended %s", js.State)
			}
		}
		out.items = []item{it}
	case "batch":
		reqs := make([]stsynapi.Request, len(r.items))
		for i, x := range r.items {
			reqs[i] = serviceCatalog[x].request()
		}
		br, err := c.Batch(ctx, reqs)
		for i, x := range r.items {
			it := item{spec: x, err: err}
			if err == nil {
				if i >= len(br.Results) {
					it.err = errors.New("batch answered fewer results than requests")
				} else if e := br.Results[i].Error; e != nil {
					it.err = e.AsError(0)
				} else {
					it.resp = br.Results[i].Response
				}
			}
			out.items = append(out.items, it)
		}
		if err == nil {
			out.batchHits = br.CacheHits
		}
	}
	out.ms = ms(time.Since(t0))
	end()
	return out
}

func terminal(state string) bool {
	return state == stsynapi.JobDone || state == stsynapi.JobFailed || state == stsynapi.JobCanceled
}

// check gates every answer: no error, verified by the server's model
// checker, the protocol the CLI path renders for the same spec (the
// committed digest), and every cached answer byte-identical to a cold one
// of the round. It returns which requests failed.
func (s *serviceSession) check(rc *roundCtx, results []reqResult) []bool {
	failed := make([]bool, len(results))
	cold := map[int]map[string]bool{}
	type cachedRef struct {
		req  int
		body string
	}
	cached := map[int][]cachedRef{}
	for i, r := range results {
		for _, it := range r.items {
			sp := serviceCatalog[it.spec]
			switch {
			case it.err != nil:
				rc.fail("%s %s: %v", r.req.class, sp.key(), it.err)
			case it.resp == nil:
				rc.fail("%s %s: empty answer", r.req.class, sp.key())
			case !it.resp.Verified:
				rc.fail("%s %s: answer not verified", r.req.class, sp.key())
			case digest(it.resp.Actions) != expectedDigests[sp.key()]:
				rc.fail("%s %s: protocol digest %s, CLI path renders %s", r.req.class, sp.key(),
					digest(it.resp.Actions), expectedDigests[sp.key()])
			default:
				body := normalized(it.resp)
				if it.resp.Cached {
					cached[it.spec] = append(cached[it.spec], cachedRef{i, body})
				} else {
					if cold[it.spec] == nil {
						cold[it.spec] = map[string]bool{}
					}
					cold[it.spec][body] = true
				}
				continue
			}
			failed[i] = true
		}
	}
	for sp, refs := range cached {
		for _, ref := range refs {
			if !cold[sp][ref.body] {
				rc.fail("%s: cached answer differs from every cold answer of the round", serviceCatalog[sp].key())
				failed[ref.req] = true
			}
		}
	}
	return failed
}

// normalized is a response's JSON with the cache marker cleared, the one
// field a cached copy may differ in.
func normalized(r *stsynapi.Response) string {
	c := *r
	c.Cached = false
	b, _ := json.Marshal(&c)
	return string(b)
}

// serviceLayers fills a traced round's service-side layer values.
func serviceLayers(rc *roundCtx, results []reqResult, delta func(string) float64) {
	var hit, miss, overhead, asyncWait []float64
	items, cachedItems, polls, clientHits := 0, 0, 0, 0
	l := rc.layers
	for _, r := range results {
		allCached := true
		seen := map[int]bool{}
		for _, it := range r.items {
			items++
			if it.resp == nil {
				allCached = false
				continue
			}
			if it.resp.Cached {
				cachedItems++
				continue
			}
			allCached = false
			if seen[it.spec] {
				continue // a batch duplicate served from the same run
			}
			seen[it.spec] = true
			t := it.resp.Timings
			l["core.solve_ms"] += t.TotalMS
			l["core.ranking_ms"] += t.RankingMS
			l["core.scc_ms"] += t.SCCMS
			l["core.passes_ms"] += t.TotalMS - t.RankingMS - t.SCCMS
			l["core.sccs_found"] += float64(it.resp.SCCCount)
			l["core.fastfail"] += float64(it.resp.RankInfinityFastFail)
		}
		switch r.req.class {
		case "sync":
			if len(r.items) == 1 && r.items[0].resp != nil && r.items[0].resp.Cached {
				clientHits++
			}
			if !allCached && r.items[0].resp != nil {
				overhead = append(overhead, r.ms-r.items[0].resp.ElapsedMS)
			}
		case "async":
			if r.items[0].resp != nil && r.items[0].resp.Cached {
				clientHits++
			}
			asyncWait = append(asyncWait, r.ms-r.asyncMS)
			polls += r.polls
		case "batch":
			clientHits += r.batchHits
		}
		if allCached {
			hit = append(hit, r.ms)
		} else {
			miss = append(miss, r.ms)
		}
	}
	l["service.hit_ms"], _ = median(hit)
	l["service.miss_ms"], _ = median(miss)
	l["service.overhead_ms"], _ = median(overhead)
	l["service.async_wait_ms"], _ = median(asyncWait)
	l["service.async_polls"] = float64(polls)
	if items > 0 {
		l["service.cache_hit_ratio"] = float64(cachedItems) / float64(items)
	}
	if got := delta("stsyn_cache_hits_total"); got != float64(clientHits) {
		rc.fail("stsyn_cache_hits_total rose by %v, the callers saw %d cache hits", got, clientHits)
	}
	l["service.batch_deduped"] = delta("stsyn_batch_deduped_total")
	l["service.rejected"] = delta("stsyn_admission_rejected_total") + delta("stsyn_queue_rejected_total")
	l["explicit.pre_calls"] = delta("stsyn_explicit_pre_ops_total")
	l["explicit.post_calls"] = delta("stsyn_explicit_post_ops_total")
	l["explicit.group_tests"] = delta("stsyn_explicit_group_tests_total")
}
