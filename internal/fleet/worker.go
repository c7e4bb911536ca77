package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"strings"
	"time"

	"lockin/internal/bench/opts"
	"lockin/internal/experiments"
	"lockin/internal/results"
	"lockin/internal/sweep"
	"lockin/internal/telemetry"
)

// WorkerConfig tunes one fleet worker process.
type WorkerConfig struct {
	// Addr is the coordinator's base URL (e.g. "http://host:8351").
	// Required.
	Addr string
	// Name identifies this worker in leases, status and metrics.
	// Default "<hostname>:<pid>".
	Name string
	// Client is the HTTP client leases and results travel over. Its
	// timeout must outlast the coordinator's hold of a lease request
	// (at most 1s). Default: a client with defaultWorkerTimeout — NOT
	// http.DefaultClient, whose missing timeout would wedge the worker
	// forever on a hung coordinator connection even after its lease was
	// reaped and the chunk stolen.
	Client *http.Client
	// Logger receives chunk lifecycle records. Nil discards.
	Logger *slog.Logger
	// Stats, when non-nil, accumulates sweep counters across every
	// chunk this worker executes.
	Stats *sweep.Stats
	// joinRetries bounds the initial connection attempts (test hook;
	// 0 = the default 30, ~15 s at the default backoff).
	joinRetries int
	// maxBodyBytes overrides the response-body bound (test hook;
	// 0 = the default maxResultBytes).
	maxBodyBytes int64
}

// defaultWorkerTimeout caps every coordinator round-trip of the
// default client. It must exceed the coordinator's default LeaseTTL
// (2m): a result upload slower than the TTL should lose its lease to
// the reaper, not be cut off by its own client while still winning the
// merge race.
const defaultWorkerTimeout = 5 * time.Minute

// Work joins a coordinator and executes leased chunks until the
// coordinator reports the run complete (or ctx is cancelled). Each
// chunk runs through the ordinary sweep engine as a contiguous cell
// range, so the rows it produces are the exact rows a serial run
// would produce for those cells.
func Work(ctx context.Context, cfg WorkerConfig) error {
	w, err := newWorker(cfg)
	if err != nil {
		return err
	}
	return w.run(ctx)
}

// newWorker validates the config and fills its defaults.
func newWorker(cfg WorkerConfig) (*worker, error) {
	if cfg.Addr == "" {
		return nil, fmt.Errorf("fleet: worker needs a coordinator address")
	}
	if cfg.Name == "" {
		host, _ := os.Hostname()
		cfg.Name = fmt.Sprintf("%s:%d", host, os.Getpid())
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{Timeout: defaultWorkerTimeout}
	}
	if cfg.Logger == nil {
		cfg.Logger = telemetry.Discard()
	}
	if cfg.joinRetries <= 0 {
		cfg.joinRetries = 30
	}
	if cfg.maxBodyBytes <= 0 {
		cfg.maxBodyBytes = maxResultBytes
	}
	return &worker{cfg: cfg, base: strings.TrimRight(cfg.Addr, "/")}, nil
}

type worker struct {
	cfg  WorkerConfig
	base string
	// exp memoizes the resolved experiment: the job is constant for
	// the life of the fleet, so a scenario spec compiles once.
	exp      *experiments.Experiment
	expO     opts.Options
	leases   int
	netFails int
}

func (w *worker) run(ctx context.Context) error {
	for {
		var resp leaseResponse
		err := w.post(ctx, "/fleet/v1/lease", leaseRequest{Worker: w.cfg.Name}, &resp)
		if err != nil {
			if !w.retryable(err) {
				return err
			}
			if err := sleepCtx(ctx, 500*time.Millisecond); err != nil {
				return err
			}
			continue
		}
		w.netFails = 0
		switch {
		case resp.Done:
			w.cfg.Logger.Info("fleet done", "worker", w.cfg.Name, "chunks", w.leases)
			return nil
		case resp.Wait:
			// The coordinator held the request as long as it holds one
			// and every chunk is still out: ask again at once.
		case resp.Lease != nil && resp.Job != nil:
			done, err := w.execute(ctx, *resp.Lease, *resp.Job)
			if err != nil {
				return err
			}
			if done {
				w.cfg.Logger.Info("fleet done", "worker", w.cfg.Name, "chunks", w.leases)
				return nil
			}
		default:
			return fmt.Errorf("fleet: coordinator sent neither done, wait nor a lease")
		}
	}
}

// retryable treats connection failures as "the coordinator is not up
// yet (or momentarily unreachable)" for a bounded number of attempts —
// workers routinely start before the coordinator finishes its survey.
func (w *worker) retryable(err error) bool {
	w.netFails++
	if w.netFails > w.cfg.joinRetries {
		return false
	}
	w.cfg.Logger.Debug("coordinator unreachable, retrying", "err", err, "attempt", w.netFails)
	return true
}

// execute simulates one leased chunk and posts the partial run back;
// done reports that this chunk completed the whole run, so the worker
// can exit without another lease round-trip (the coordinator may stop
// listening the moment the run is complete).
func (w *worker) execute(ctx context.Context, l Lease, job JobSpec) (done bool, _ error) {
	e, o, err := w.resolve(job)
	if err != nil {
		return false, err
	}
	o.RangeLo, o.RangeHi, o.RangeTotal = l.Lo, l.Hi, l.Total
	var stats sweep.Stats
	o.Stats = &stats
	run := o.Run(*e)
	b, err := results.Encode(run)
	if err != nil {
		return false, err
	}
	if w.cfg.Stats != nil {
		w.cfg.Stats.Merge(&stats)
	}
	w.leases++
	w.cfg.Logger.Info("chunk done", "worker", w.cfg.Name, "lease", l.ID,
		"lo", l.Lo, "hi", l.Hi, "cells", stats.Cells(), "wall_ms", run.Meta.Perf.WallMS)
	var resp resultResponse
	if err := w.post(ctx, "/fleet/v1/result", resultRequest{
		Worker: w.cfg.Name, LeaseID: l.ID,
		BusyMS: stats.Busy().Milliseconds(), Run: b,
	}, &resp); err != nil {
		return false, err
	}
	if resp.Discarded {
		// The lease expired under us and someone else re-ran the
		// chunk — harmless, both copies are byte-identical.
		w.cfg.Logger.Warn("chunk discarded (lease expired)", "lease", l.ID)
	}
	return resp.Done, nil
}

// resolve turns the job into an experiment plus the option base whose
// RunMeta matches what a serial CLI run of the same flags records.
func (w *worker) resolve(job JobSpec) (*experiments.Experiment, opts.Options, error) {
	if w.exp == nil {
		e, o, err := job.Resolve()
		if err != nil {
			return nil, o, fmt.Errorf("fleet: bad job: %w", err)
		}
		w.exp, w.expO = &e, o
	}
	return w.exp, w.expO, nil
}

// post sends one JSON request and decodes the JSON answer. A non-2xx
// status is an error carrying the server's message (e.g. a 409 spec
// conflict).
func (w *worker) post(ctx context.Context, path string, body, out any) error {
	b, err := json.Marshal(body)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.base+path, bytes.NewReader(b))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.cfg.Client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	// Read one byte past the bound so hitting it is detectable — a
	// silently truncated response must not masquerade as a decode error.
	rb, err := io.ReadAll(io.LimitReader(resp.Body, w.cfg.maxBodyBytes+1))
	if err != nil {
		return err
	}
	if int64(len(rb)) > w.cfg.maxBodyBytes {
		return fmt.Errorf("fleet: %s: response exceeds the %d-byte limit", path, w.cfg.maxBodyBytes)
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("fleet: %s: %s: %s", path, resp.Status, strings.TrimSpace(string(rb)))
	}
	return json.Unmarshal(rb, out)
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
