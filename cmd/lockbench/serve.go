package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"lockin/internal/bench/opts"
	"lockin/internal/serve"
	"lockin/internal/telemetry"
)

// runServe is the `lockbench serve` subcommand: the benchmark service
// over the experiment registry and the results store. Running it from
// the same binary as the CLI matters for byte-identity — both stamp
// runs with the same results.Version, so a run cached by the service
// diffs clean against one the CLI stored.
func runServe(args []string) {
	fs := flag.NewFlagSet("lockbench serve", flag.ExitOnError)
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: lockbench serve [flags]")
		fmt.Fprintln(fs.Output(), "\nthe benchmark service: POST runs, GET cached results and axis queries over HTTP")
		fmt.Fprintln(fs.Output(), "(see README \"Benchmark service\" for the endpoint and query-parameter reference)")
		fmt.Fprintln(fs.Output())
		fs.PrintDefaults()
	}
	f := bindServeFlags(fs)
	fs.Parse(args) // ExitOnError: a bad flag exits 2
	cfg, err := f.config()
	var srv *serve.Server
	if err == nil {
		// serve.New checks the config; its errors name the flag.
		srv, err = serve.New(cfg)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "lockbench serve: %v\n", err)
		os.Exit(2)
	}
	logger := cfg.Logger

	hs := &http.Server{Addr: f.addr, Handler: srv.Handler()}
	// Shut down cleanly on SIGINT/SIGTERM: stop accepting requests,
	// then drain queued and in-flight sweeps so no cache write is torn.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	logger.Info("listening", "addr", f.addr, "cache", cfg.CacheDir, "pool", cfg.Pool,
		"cache_max_bytes", cfg.CacheMaxBytes, "cache_max_runs", cfg.CacheMaxRuns,
		"rate", cfg.RateLimit, "auth", cfg.AuthToken != "")

	select {
	case err := <-errc:
		fmt.Fprintf(os.Stderr, "lockbench serve: %v\n", err)
		os.Exit(1)
	case <-ctx.Done():
	}
	logger.Info("shutting down")
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	hs.Shutdown(shutCtx)
	srv.Close()
}

// serveFlags holds the `lockbench serve` flags: most bind straight onto
// the serve.Config, whose checks and pool/queue defaults serve.New
// owns; the listen address and logger are the process's own, and
// -cache-max-bytes collects as a string because it takes unit suffixes.
type serveFlags struct {
	cfg      serve.Config
	addr     string
	maxBytes string
	newLog   func(io.Writer) (*slog.Logger, error)
}

// bindServeFlags binds the serve flags onto fs with their names,
// defaults and help strings.
func bindServeFlags(fs *flag.FlagSet) *serveFlags {
	f := &serveFlags{}
	fs.StringVar(&f.addr, "addr", ":8347", "listen address")
	fs.StringVar(&f.cfg.CacheDir, "cache", "runs-cache", "run-cache directory: completed runs land here as <cache key>.json; identical submissions answer from it without simulating")
	fs.IntVar(&f.cfg.Pool, "pool", serve.DefaultPool, "sweeps simulated concurrently (each sweep additionally parallelizes per its workers option)")
	fs.IntVar(&f.cfg.QueueDepth, "queue", serve.DefaultQueueDepth, "submission queue depth; a full queue answers 503 (with Retry-After) instead of buffering unboundedly")
	fs.StringVar(&f.maxBytes, "cache-max-bytes", "", "run-cache size bound with LRU eviction, unit suffixes accepted (e.g. 512MiB, 2GB); empty or 0 = unbounded")
	fs.IntVar(&f.cfg.CacheMaxRuns, "cache-max-runs", 0, "run-cache count bound with LRU eviction; 0 = unbounded")
	fs.Float64Var(&f.cfg.RateLimit, "rate", 0, "per-client POST budget in requests/second (token bucket; 429 with Retry-After when exhausted); 0 = unlimited")
	fs.IntVar(&f.cfg.RateBurst, "rate-burst", 8, "token-bucket depth per client: POSTs a client may burst before -rate paces it")
	fs.StringVar(&f.cfg.AuthToken, "auth-token", "", "when set, POST routes require Authorization: Bearer <token> (401 without); GET routes stay open")
	f.newLog = telemetry.BindLogFlags(fs)
	return f
}

// config finishes the bound serve.Config after fs was parsed: it
// parses -cache-max-bytes and builds the logger.
func (f *serveFlags) config() (serve.Config, error) {
	cfg := f.cfg
	var err error
	if cfg.CacheMaxBytes, err = opts.ParseBytes(f.maxBytes); err != nil {
		return cfg, err
	}
	cfg.Logger, err = f.newLog(os.Stderr)
	return cfg, err
}
