package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"lockin/internal/bench/opts"
	"lockin/internal/fleet"
	"lockin/internal/results"
	"lockin/internal/sweep"
	"lockin/internal/telemetry"
)

// runCoordinate is the `lockbench coordinate` subcommand: the fleet
// coordinator of one distributed sweep. It enumerates the experiment's
// grids without simulating, leases cell-range chunks to joining
// `lockbench work` processes (large chunks first, most expensive
// first), merges posted chunks on arrival and — once one merged
// segment covers the whole cell space — prints the run and optionally
// stores it, byte-identical (modulo provenance) to a serial run.
func runCoordinate(args []string) {
	fs := flag.NewFlagSet("lockbench coordinate", flag.ExitOnError)
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: lockbench coordinate -experiment <id> | -scenario <spec.json> [flags]")
		fmt.Fprintln(fs.Output(), "\nthe fleet coordinator: leases cell-range chunks to `lockbench work` processes")
		fmt.Fprintln(fs.Output(), "and merges their results into one run (see README \"Distributed sweeps\")")
		fmt.Fprintln(fs.Output())
		fs.PrintDefaults()
	}
	var (
		addr     = fs.String("addr", ":8351", "listen address workers join on")
		id       = fs.String("experiment", "", "registered experiment id to distribute")
		scenFile = fs.String("scenario", "", "scenario spec file to distribute instead of a registered experiment")
		expect   = fs.Int("expect", 4, "worker count the chunk schedule is sized for (more may join; they steal)")
		ttl      = fs.Duration("lease-ttl", 2*time.Minute, "lease deadline; an unreported chunk requeues after this and the next idle worker steals it")
		jsonDir  = fs.String("json", "", "save the merged run to <dir>/<id>.json (results store)")
		newLog   = telemetry.BindLogFlags(fs)
	)
	// The run flags are fleet-wide; every worker runs its chunks with
	// -workers sweep workers, which the run metadata records.
	ro := sweep.DefaultOptions()
	opts.BindRunFlags(fs, &ro)
	fs.Parse(args) // ExitOnError: a bad flag exits 2

	logger, err := newLog(os.Stderr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "lockbench coordinate: %v\n", err)
		os.Exit(2)
	}
	job := fleet.JobSpec{Experiment: *id, Seed: ro.Seed, Scale: ro.Scale, Quick: ro.Quick, Workers: ro.Workers}
	if *scenFile != "" {
		spec, err := os.ReadFile(*scenFile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "lockbench coordinate: read scenario spec: %v\n", err)
			os.Exit(2)
		}
		job.Scenario = json.RawMessage(spec)
	}
	co, err := fleet.New(fleet.Config{
		Job: job, Expect: *expect, LeaseTTL: *ttl, Logger: logger,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "lockbench coordinate: %v\n", err)
		os.Exit(2)
	}

	hs := &http.Server{Addr: *addr, Handler: co.Handler()}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	logger.Info("coordinating", "addr", *addr, "experiment", co.Status().Experiment)

	select {
	case err := <-errc:
		fmt.Fprintf(os.Stderr, "lockbench coordinate: %v\n", err)
		os.Exit(1)
	case <-ctx.Done():
		logger.Info("interrupted; abandoning the fleet")
		os.Exit(1)
	case <-co.Done():
	}
	// A worker whose chunk merged just before another completed the run
	// is on its way back for a lease: wait (at most MaxHold) until every
	// worker seen has been answered "done", so none finds us gone.
	select {
	case <-co.Dismissed():
	case <-time.After(co.MaxHold()):
		logger.Warn("a worker never heard done before shutdown")
	}
	// Stop listening, and wait (at most 3 s) for the requests in
	// flight: the idle workers' held lease requests answer "done" as
	// the run completes, so they exit cleanly before we do.
	shutCtx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	if err := hs.Shutdown(shutCtx); err != nil {
		logger.Warn("workers still connected at exit", "err", err)
	}

	run := co.Result()
	fmt.Printf("### %s — merged from the fleet\n\n", run.Meta.Experiment)
	printTables(run.Tables)
	if p := run.Meta.Perf; p != nil {
		fmt.Printf("### %s done in %vms (%d cells, %.1f cells/sec)\n\n",
			run.Meta.Experiment, p.WallMS, p.Cells, p.CellsPerSec)
	}
	if *jsonDir != "" {
		path, err := results.Save(*jsonDir, run)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("### saved %s\n\n", path)
	}
}

// runWork is the `lockbench work` subcommand: one fleet worker. It
// joins a coordinator, executes leased chunks through the ordinary
// sweep engine and exits when the coordinator reports the run done.
func runWork(args []string) {
	fs := flag.NewFlagSet("lockbench work", flag.ExitOnError)
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: lockbench work -join <http://host:port> [flags]")
		fmt.Fprintln(fs.Output(), "\none fleet worker: executes chunks leased by `lockbench coordinate`")
		fmt.Fprintln(fs.Output())
		fs.PrintDefaults()
	}
	var (
		join   = fs.String("join", "", "coordinator base URL (required)")
		name   = fs.String("name", "", "worker name in status and metrics (default host:pid)")
		newLog = telemetry.BindLogFlags(fs)
	)
	fs.Parse(args)

	logger, err := newLog(os.Stderr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "lockbench work: %v\n", err)
		os.Exit(2)
	}
	if *join == "" {
		fmt.Fprintln(os.Stderr, "lockbench work: -join <coordinator url> is required")
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := fleet.Work(ctx, fleet.WorkerConfig{Addr: *join, Name: *name, Logger: logger}); err != nil {
		fmt.Fprintf(os.Stderr, "lockbench work: %v\n", err)
		os.Exit(1)
	}
}
