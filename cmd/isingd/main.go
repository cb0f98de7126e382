// Command isingd is the long-running simulation daemon: a REST service over
// the backend registry that queues JSON job specs on a bounded worker pool,
// streams observables as NDJSON while jobs run, deduplicates identical
// queries through a result cache, and checkpoints snapshottable jobs so a
// restarted daemon resumes them bit-identically (internal/service).
//
// Endpoints (see internal/service/http.go):
//
//	POST   /v1/jobs             submit a job spec
//	GET    /v1/jobs             list jobs
//	GET    /v1/jobs/{id}        job status
//	DELETE /v1/jobs/{id}        cancel
//	GET    /v1/jobs/{id}/result final result (202 until done)
//	GET    /v1/jobs/{id}/stream NDJSON observable stream
//	GET    /v1/jobs/{id}/trace  lifecycle timeline with stage durations
//	GET    /v1/stats            server counters (JSON)
//	GET    /metrics             Prometheus text exposition (counters, gauges
//	                            and stage-latency histograms)
//
// Example session:
//
//	isingd -addr localhost:8765 -checkpoint-dir /var/lib/isingd &
//	curl -s localhost:8765/v1/jobs -d '{"backend":"multispin","rows":256,"cols":256,"sweeps":10000,"seed":7}'
//	curl -s localhost:8765/v1/jobs/job-000001/stream      # NDJSON while it runs
//	curl -s localhost:8765/v1/jobs/job-000001/result      # encode.Result when done
//
// On SIGINT/SIGTERM the daemon stops accepting work, writes a final
// checkpoint for every running snapshottable job and exits; restarting over
// the same -checkpoint-dir resumes those jobs where they stopped. With a
// checkpoint directory every accepted job is durable: jobs without an engine
// snapshot (tempering ladders, batched ensembles) rerun from sweep zero
// after a restart, which the deterministic engines turn into the identical
// result.
//
// The -max-queued-per-client / -max-running-per-client flags turn on
// per-client quotas keyed by the X-Client-ID submission header (or the
// spec's client field); -cache-bytes, -cache-ttl, -job-ttl and -history
// bound the result cache and the finished-job table.
//
// Observability: the daemon logs structured lines (log/slog) — -log-format
// picks text or json, -log-level the floor (debug logs every admission and
// HTTP request). -debug-addr opens a SEPARATE listener serving net/http/pprof
// under /debug/pprof/; it is never mounted on the public mux, so profiling
// stays reachable only where the operator pointed it (typically a loopback
// port).
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime/debug"
	"syscall"
	"time"

	"tpuising/internal/service"
)

func main() {
	addr := flag.String("addr", "localhost:8765", "listen address")
	debugAddr := flag.String("debug-addr", "", "separate listener for /debug/pprof/ (empty = no profiling endpoint; never on the public mux)")
	workers := flag.Int("workers", 2, "worker pool size (concurrent jobs)")
	queue := flag.Int("queue", 64, "queued-job bound; submissions beyond it are rejected")
	ckptDir := flag.String("checkpoint-dir", "", "directory for job checkpoints (empty = no checkpointing)")
	ckptInterval := flag.Int("checkpoint-interval", 1000, "default sweeps between checkpoints for snapshottable backends")
	cacheSize := flag.Int("cache", 256, "result cache entries (negative = disable caching)")
	cacheBytes := flag.Int64("cache-bytes", 32<<20, "result cache byte bound (negative = no byte bound)")
	cacheTTL := flag.Duration("cache-ttl", 0, "result cache entry lifetime (0 = never expire)")
	history := flag.Int("history", 1024, "finished jobs kept queryable (negative = keep forever)")
	jobTTL := flag.Duration("job-ttl", 0, "finished-job retention age (0 = only the -history count bound)")
	maxQueued := flag.Int("max-queued-per-client", 0, "per-client queued-job quota (0 = no quota; X-Client-ID keys it)")
	maxRunning := flag.Int("max-running-per-client", 0, "per-client running-job cap (0 = no cap)")
	logLevel := flag.String("log-level", "info", "log floor: debug, info, warn or error")
	logFormat := flag.String("log-format", "text", "log encoding: text or json")
	flag.Parse()

	logger, err := newLogger(os.Stderr, *logLevel, *logFormat)
	if err != nil {
		fmt.Fprintf(os.Stderr, "isingd: %v\n", err)
		os.Exit(2)
	}

	srv, skipped := service.New(service.Config{
		Workers:             *workers,
		QueueDepth:          *queue,
		CheckpointDir:       *ckptDir,
		CheckpointInterval:  *ckptInterval,
		CacheSize:           *cacheSize,
		CacheBytes:          *cacheBytes,
		CacheTTL:            *cacheTTL,
		JobHistory:          *history,
		JobTTL:              *jobTTL,
		MaxQueuedPerClient:  *maxQueued,
		MaxRunningPerClient: *maxRunning,
		Logger:              logger,
		Version:             buildVersion(),
	})
	for _, err := range skipped {
		logger.Warn("skipping checkpoint", "error", err)
	}
	if resumed := srv.Stats().JobsResumed; resumed > 0 {
		logger.Info("resumed checkpointed jobs", "jobs", resumed, "dir", *ckptDir)
	}

	// Requests log at info through RequestLog; operators who find that
	// chatty raise -log-level to warn.
	handler := service.RequestLog(logger, srv.Handler())

	// ReadHeaderTimeout bounds how long a client may dribble its request
	// headers (slow-loris defence: without it one never-finishing client
	// holds a connection goroutine forever) and IdleTimeout reaps idle
	// keep-alive connections. Deliberately no WriteTimeout: the /stream
	// endpoint writes NDJSON for the whole life of a job, and a blanket
	// write deadline would sever every long-lived stream.
	httpServer := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	errc := make(chan error, 1)
	go func() { errc <- httpServer.ListenAndServe() }()

	var debugServer *http.Server
	if *debugAddr != "" {
		debugServer = &http.Server{
			Addr:              *debugAddr,
			Handler:           debugMux(),
			ReadHeaderTimeout: 10 * time.Second,
		}
		go func() {
			// A dead debug listener is an operator problem, not a daemon
			// problem: log it and keep serving jobs.
			if err := debugServer.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				logger.Error("debug listener failed", "addr", *debugAddr, "error", err)
			}
		}()
		logger.Info("pprof listening", "addr", *debugAddr)
	}

	logger.Info("serving", append([]any{"addr", *addr, "workers", srv.Workers(), "queue", *queue, "version", buildVersion()},
		service.KernelAttrs()...)...)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		logger.Info("shutting down", "signal", sig.String())
	case err := <-errc:
		logger.Error("listener failed", "error", err)
		os.Exit(1)
	}
	// Close the service first: it checkpoints running snapshottable jobs for
	// the next daemon and ends open NDJSON streams, so the HTTP drain below
	// finishes promptly.
	srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = httpServer.Shutdown(ctx)
	if debugServer != nil {
		_ = debugServer.Shutdown(ctx)
	}
	logger.Info("stopped")
}

// newLogger builds the daemon logger from the -log-level / -log-format flags.
func newLogger(w *os.File, level, format string) (*slog.Logger, error) {
	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(level)); err != nil {
		return nil, fmt.Errorf("bad -log-level %q (want debug, info, warn or error)", level)
	}
	opts := &slog.HandlerOptions{Level: lvl}
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(w, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(w, opts)), nil
	default:
		return nil, fmt.Errorf("bad -log-format %q (want text or json)", format)
	}
}

// debugMux registers the pprof handlers explicitly on a fresh mux instead of
// importing net/http/pprof for its DefaultServeMux side effect — the public
// handler must never inherit profiling routes by accident.
func debugMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// buildVersion is the isingd_build_info version label: the module version
// when built with one (go install tpuising/cmd/isingd@vX), the VCS revision
// otherwise, "dev" when neither is stamped.
func buildVersion() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "dev"
	}
	if v := info.Main.Version; v != "" && v != "(devel)" {
		return v
	}
	for _, kv := range info.Settings {
		if kv.Key == "vcs.revision" && len(kv.Value) >= 12 {
			return kv.Value[:12]
		}
	}
	return "dev"
}
