// Command stsyn-dist runs a distributed schedule search: a coordinator
// that shards the search space across a fleet of stsyn-serve workers and
// prints the winning worker response — byte-identical to what a
// single-node search over the same space would pick.
//
// Usage:
//
//	stsyn-serve -addr :8081 & stsyn-serve -addr :8082 &
//	stsyn-dist -workers http://localhost:8081,http://localhost:8082 \
//	    -protocol coloring -k 5 -schedules sample:64:1
//
// With -journal the job is durable: shard completions are logged to an
// append-only WAL and a restarted coordinator resumes where it left off,
// re-running nothing that already finished. With -addr the coordinator
// serves its own /metrics and /healthz while the job runs.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"stsyn/internal/dist"
	"stsyn/internal/service"
)

func main() {
	var (
		workers   = flag.String("workers", "http://localhost:8080", "comma-separated stsyn-serve base URLs")
		protoName = flag.String("protocol", "", "built-in protocol name (see stsyn-serve /v1/protocols)")
		k         = flag.Int("k", 4, "number of processes for the built-in protocol")
		dom       = flag.Int("dom", 3, "domain size for the built-in protocol")
		specPath  = flag.String("spec", "", "inline .stsyn specification file (mutually exclusive with -protocol)")
		engine    = flag.String("engine", "", "worker engine: auto (default), explicit or symbolic")
		jobTO     = flag.Duration("timeout", 0, "per-schedule synthesis timeout sent to workers (0 = worker default)")
		schedules = flag.String("schedules", "rotations", "search space: rotations, all, or sample:N[:SEED]")
		pruneOn   = flag.Bool("prune", false, "quotient the search by the spec's symmetry group before sharding (result is unchanged)")

		shardSize    = flag.Int("shard-size", 4, "consecutive schedules per shard")
		concurrency  = flag.Int("concurrency", 0, "shards in flight (0 = worker count)")
		shardRetries = flag.Int("shard-retries", 2, "requeues per shard after transport failures")
		journal      = flag.String("journal", "", "WAL path; set to make the job durable and resumable")

		reqTO      = flag.Duration("request-timeout", 2*time.Minute, "one HTTP attempt's budget")
		failThresh = flag.Int("failure-threshold", 0, "consecutive failures before a worker cools down (0 = default 3)")
		cooldown   = flag.Duration("cooldown", 0, "how long a failing worker sits out of rotation (0 = default 5s)")
		tenant     = flag.String("tenant", "stsyn-dist", "tenant name sent to workers for per-tenant admission (empty = anonymous)")
		addr       = flag.String("addr", "", "serve coordinator /metrics and /healthz here (empty = off)")
		verbose    = flag.Bool("v", true, "log shard and retry events")
	)
	flag.Parse()

	logger := log.New(os.Stderr, "stsyn-dist ", log.LstdFlags|log.Lmicroseconds)
	logf := func(string, ...interface{}) {}
	if *verbose {
		logf = logger.Printf
	}

	source, err := parseSource(*schedules)
	if err != nil {
		logger.Fatal(err)
	}
	req := service.Request{
		Protocol:  *protoName,
		K:         *k,
		Dom:       *dom,
		Engine:    *engine,
		TimeoutMS: int(*jobTO / time.Millisecond),
		Prune:     *pruneOn,
	}
	if *specPath != "" {
		spec, err := os.ReadFile(*specPath)
		if err != nil {
			logger.Fatal(err)
		}
		req.Spec = string(spec)
		req.Protocol, req.K, req.Dom = "", 0, 0
	}

	client, err := dist.NewClient(dist.ClientConfig{
		Workers:          splitWorkers(*workers),
		RequestTimeout:   *reqTO,
		FailureThreshold: *failThresh,
		Cooldown:         *cooldown,
		Tenant:           *tenant,
		Logf:             logf,
	})
	if err != nil {
		logger.Fatal(err)
	}
	coord, err := dist.NewCoordinator(dist.Config{
		Client:       client,
		ShardSize:    *shardSize,
		Concurrency:  *concurrency,
		ShardRetries: *shardRetries,
		JournalPath:  *journal,
		Logf:         logf,
	})
	if err != nil {
		logger.Fatal(err)
	}

	if *addr != "" {
		srv := &http.Server{Addr: *addr, Handler: coord.Handler(), ReadHeaderTimeout: 10 * time.Second}
		go func() {
			if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				logger.Printf("metrics listener: %v", err)
			}
		}()
		defer srv.Close()
		logger.Printf("metrics on %s", *addr)
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	start := time.Now()
	res, err := coord.Run(ctx, dist.Job{Request: req, Source: source})
	if err != nil {
		logger.Fatal(err)
	}
	logger.Printf("winner at index %d schedule %v in %s (tried %d/%d schedules, %d pruned, %d requests, %d shards done, %d resumed, %d requeues)",
		res.WinIndex, res.WinSchedule, time.Since(start).Round(time.Millisecond),
		res.Stats.SchedulesTried, res.Stats.TotalSchedules, res.Stats.SchedulesPruned,
		res.Stats.Requests, res.Stats.ShardsCompleted, res.Stats.ShardsResumed, res.Stats.ShardRequeues)

	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(res.Winner); err != nil {
		logger.Fatal(err)
	}
}

// parseSource turns the -schedules flag into a ScheduleSource:
// "rotations", "all", or "sample:N[:SEED]".
func parseSource(s string) (dist.ScheduleSource, error) {
	switch {
	case s == "rotations" || s == "":
		return dist.ScheduleSource{Kind: "rotations"}, nil
	case s == "all":
		return dist.ScheduleSource{Kind: "all"}, nil
	case strings.HasPrefix(s, "sample:"):
		parts := strings.Split(s, ":")
		if len(parts) < 2 || len(parts) > 3 {
			return dist.ScheduleSource{}, fmt.Errorf("stsyn-dist: -schedules sample wants sample:N[:SEED], got %q", s)
		}
		n, err := strconv.Atoi(parts[1])
		if err != nil || n <= 0 {
			return dist.ScheduleSource{}, fmt.Errorf("stsyn-dist: bad sample size in %q", s)
		}
		src := dist.ScheduleSource{Kind: "sample", N: n}
		if len(parts) == 3 {
			seed, err := strconv.ParseInt(parts[2], 10, 64)
			if err != nil {
				return dist.ScheduleSource{}, fmt.Errorf("stsyn-dist: bad sample seed in %q", s)
			}
			src.Seed = seed
		}
		return src, nil
	default:
		return dist.ScheduleSource{}, fmt.Errorf("stsyn-dist: unknown -schedules %q (want rotations, all, or sample:N[:SEED])", s)
	}
}

func splitWorkers(s string) []string {
	var out []string
	for _, w := range strings.Split(s, ",") {
		if w = strings.TrimSpace(strings.TrimSuffix(w, "/")); w != "" {
			out = append(out, w)
		}
	}
	return out
}
