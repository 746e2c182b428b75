// Command stsyn-serve runs the synthesizer as an HTTP/JSON service: a
// bounded worker pool over the synthesis engines, a content-addressed
// result cache, and Prometheus-style metrics.
//
// Usage:
//
//	stsyn-serve -addr :8080 -workers 8 -queue 128 -cache-mb 128
//
//	curl -s localhost:8080/v1/synthesize -d '{"protocol":"tokenring","k":4,"dom":3}'
//	curl -s localhost:8080/metrics
//
// Long-running jobs can go through the async API instead: POST /v1/jobs
// answers 202 with a job ID, GET /v1/jobs/{id} polls it, DELETE cancels
// it, and POST /v1/batch answers many requests in one round trip. Async
// and sync answers are byte-identical — they share the result cache.
//
// -debug-addr starts an opt-in net/http/pprof listener on a second,
// separate mux (never the serving one); bind it to localhost:
//
//	stsyn-serve -addr :8080 -debug-addr localhost:6060
//	go tool pprof http://localhost:6060/debug/pprof/profile
//
// Shutdown is graceful: on SIGINT/SIGTERM the listener stops, in-flight
// jobs drain, then the process exits.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"stsyn/internal/service"
)

func main() {
	var (
		addr    = flag.String("addr", ":8080", "listen address")
		workers = flag.Int("workers", 0, "synthesis workers (0 = GOMAXPROCS)")
		queue   = flag.Int("queue", 64, "job queue depth before 503 backpressure")
		cacheMB = flag.Int64("cache-mb", 64, "result cache budget in MiB (0 disables)")
		timeout = flag.Duration("timeout", 30*time.Second, "default per-job timeout")
		maxTO   = flag.Duration("max-timeout", 5*time.Minute, "maximum per-job timeout")
		drainTO = flag.Duration("drain-timeout", time.Minute, "graceful-shutdown drain budget")
		verbose = flag.Bool("v", true, "log one line per job")
		debug   = flag.String("debug-addr", "", "net/http/pprof listener address (e.g. localhost:6060); empty (the default) disables it")

		jobsMax     = flag.Int("jobs-max", 1024, "live async jobs before 503 backpressure")
		jobTTL      = flag.Duration("job-ttl", 10*time.Minute, "how long finished async jobs stay pollable")
		tenantRate  = flag.Float64("tenant-rate", 50, "per-tenant admission rate in requests/s (0 = default, negative disables)")
		tenantBurst = flag.Int("tenant-burst", 0, "per-tenant admission burst (0 = 2x rate)")
	)
	flag.Parse()

	logger := log.New(os.Stderr, "stsyn-serve ", log.LstdFlags|log.Lmicroseconds)
	cfg := service.Config{
		Workers:        *workers,
		QueueDepth:     *queue,
		DefaultTimeout: *timeout,
		MaxTimeout:     *maxTO,
		CacheBytes:     *cacheMB << 20,
		JobsMax:        *jobsMax,
		JobTTL:         *jobTTL,
		TenantRate:     *tenantRate,
		TenantBurst:    *tenantBurst,
	}
	if cfg.CacheBytes == 0 {
		cfg.CacheBytes = -1 // 0 MiB means "disable", not "default"
	}
	if *verbose {
		cfg.Logf = logger.Printf
	}
	svc := service.New(cfg)

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           svc.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	// The optional pprof listener gets its own mux on its own address —
	// the profiling handlers are never mounted on the serving mux, so an
	// internet-facing -addr cannot expose them. Bind it to localhost (or a
	// private interface) and point `go tool pprof` at
	// http://<debug-addr>/debug/pprof/profile.
	var debugSrv *http.Server
	if *debug != "" {
		dmux := http.NewServeMux()
		dmux.HandleFunc("/debug/pprof/", pprof.Index)
		dmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		debugSrv = &http.Server{
			Addr:              *debug,
			Handler:           dmux,
			ReadHeaderTimeout: 10 * time.Second,
		}
		go func() {
			if err := debugSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				logger.Printf("debug listener failed: %v", err)
			}
		}()
		logger.Printf("pprof debug listener on %s", *debug)
	}

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	logger.Printf("listening on %s (workers=%d queue=%d cache=%dMiB)",
		*addr, cfg.Workers, *queue, *cacheMB)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		logger.Printf("received %v, draining", sig)
	case err := <-errc:
		logger.Printf("listener failed: %v", err)
		os.Exit(1)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainTO)
	defer cancel()
	if debugSrv != nil {
		debugSrv.Close() // diagnostics only: no draining owed
	}
	if err := httpSrv.Shutdown(ctx); err != nil {
		logger.Printf("http shutdown: %v", err)
	}
	if err := svc.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "stsyn-serve: drain incomplete: %v\n", err)
		os.Exit(1)
	}
	logger.Printf("bye")
}
