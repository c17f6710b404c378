// Command provmarkd serves the ProvMark (tools × benchmarks)
// expressiveness matrix over HTTP: clients submit matrix jobs in the
// versioned wire vocabulary — naming registered benchmarks and/or
// carrying inline declarative scenarios — stream cells as NDJSON while
// they complete, and share one deduplicating result store across all
// jobs.
//
// Endpoints:
//
//	POST /v1/jobs                submit a wire.JobSpec (benchmarks and/or inline scenarios)
//	GET  /v1/jobs/{id}           job status
//	GET  /v1/jobs/{id}/stream    NDJSON cell stream (owner; cancels on disconnect)
//	GET  /v1/results/{cell}      stored cell result by dedup key
//	POST /v1/query               evaluate Datalog rules against a stored cell's provenance
//	GET  /v1/stats               store + query counters, retained jobs by state
//	GET  /metrics                Prometheus text exposition
//	GET  /healthz                liveness
//
// Every endpoint is served through the internal/httpmw chain: panic
// recovery, X-Request-ID correlation, structured JSON access logs,
// per-route metrics, and — when the matching flags are set — bearer
// auth (-auth-token), per-session token-bucket rate limiting
// (-rate/-burst), and lifetime session quotas (-session-quota).
//
// provmark-batch --remote is the matching client; it retries on
// 429/503 honoring Retry-After.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"provmark/internal/jobs"

	// Backends register themselves with the capture registry.
	_ "provmark/internal/capture/camflow"
	_ "provmark/internal/capture/opus"
	_ "provmark/internal/capture/spade"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "provmarkd:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("provmarkd", flag.ContinueOnError)
	addr := fs.String("addr", ":8177", "listen address")
	workers := fs.Int("workers", 0, "cells in flight across all jobs (0 = GOMAXPROCS)")
	storeSize := fs.Int("store-size", jobs.DefaultStoreSize, "max cached cell results")
	maxJobs := fs.Int("max-jobs", jobs.DefaultMaxJobs, "retained jobs; oldest finished jobs are evicted beyond this")
	authToken := fs.String("auth-token", "", "require this bearer token on every request except /healthz (empty = auth disabled)")
	rate := fs.Float64("rate", 0, "per-session request rate in requests/second (0 = rate limiting disabled)")
	burst := fs.Int("burst", 10, "token-bucket capacity per session when -rate is set")
	sessionQuota := fs.Int64("session-quota", 0, "lifetime request quota per session (0 = unlimited)")
	logFormat := fs.String("log-format", "json", "structured log format: json or text")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var handler slog.Handler
	switch *logFormat {
	case "json":
		handler = slog.NewJSONHandler(os.Stderr, nil)
	case "text":
		handler = slog.NewTextHandler(os.Stderr, nil)
	default:
		return fmt.Errorf("unknown -log-format %q (want json or text)", *logFormat)
	}
	logger := slog.New(handler)

	m := jobs.NewManager(jobs.Config{Workers: *workers, StoreSize: *storeSize, MaxJobs: *maxJobs})
	defer m.Close()

	// A misordered middleware chain is a startup error by design:
	// refuse to serve rather than run with a scrambled policy stack.
	h, err := jobs.NewServer(m,
		jobs.WithAuthToken(*authToken),
		jobs.WithRateLimit(*rate, *burst),
		jobs.WithSessionQuota(*sessionQuota),
		jobs.WithLogger(logger),
	)
	if err != nil {
		return err
	}

	// The effective config, for operators — auth is reported as a
	// boolean only; the token value never reaches a log line.
	logger.LogAttrs(ctx, slog.LevelInfo, "provmarkd starting",
		slog.String("addr", *addr),
		slog.Int("workers", m.Workers()),
		slog.Int("store_size", *storeSize),
		slog.Int("max_jobs", *maxJobs),
		slog.Bool("auth", *authToken != ""),
		slog.Float64("rate", *rate),
		slog.Int("burst", *burst),
		slog.Int64("session_quota", *sessionQuota),
		slog.String("log_format", *logFormat),
	)

	srv := &http.Server{Addr: *addr, Handler: h}
	errc := make(chan error, 1)
	go func() {
		logger.Info("provmarkd serving /v1", "addr", *addr)
		errc <- srv.ListenAndServe()
	}()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	logger.Info("provmarkd shutting down")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	logger.Info("provmarkd stopped")
	return nil
}
