// Package serve is the benchmark service: a long-running HTTP server
// over the experiment registry and the results store, turning the
// local regeneration CLI into benchmark-as-a-service. POST /v1/runs
// enqueues a sweep — a registered experiment id or a scenario spec
// body — on a bounded worker pool; submissions are deduped by the
// content-addressed cache key results.Meta.CacheKey (spec hash or
// experiment id, plus seed/scale/quick) against a run-cache directory,
// so any run is simulated at most once and every later request is
// answered from the stored run without simulating. GET endpoints
// expose the axis-aware query layer (slice/project/diff) over the
// cached runs, which they hold decoded in memory up to a fixed budget
// (held.go), and /v1/runs/{key}/events streams sweep progress as
// server-sent events.
//
// The CLI and the service share one options schema
// (internal/bench/opts) and one byte encoding (results.Encode), so an
// HTTP answer is byte-identical to the matching CLI output: GET
// /v1/runs/{key} equals the file `lockbench -json` saves, and GET
// /v1/runs/{key}/slice?read=90 equals the file `lockbench -load …
// -slice read=90 -json` saves.
package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"log/slog"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"lockin/internal/bench/opts"
	"lockin/internal/experiments"
	"lockin/internal/results"
	"lockin/internal/sweep"
	"lockin/internal/telemetry"
)

// Config tunes a Server.
type Config struct {
	// CacheDir is the content-addressed run cache: every completed run
	// is stored as <CacheDir>/<cache key>.json (results.Encode bytes),
	// and submissions whose key already exists are answered from it
	// without simulating. Created if missing. Required.
	CacheDir string
	// Pool is the number of sweeps simulated concurrently (each sweep
	// additionally fans its grid cells across the request's workers
	// option). Values ≤ 0 mean DefaultPool.
	Pool int
	// QueueDepth bounds the submission queue: a full queue rejects new
	// work with 503 (and a Retry-After hint) instead of buffering
	// unboundedly. Values ≤ 0 mean DefaultQueueDepth.
	QueueDepth int
	// Logger receives structured request and job-lifecycle records —
	// one line per request (with a monotonic request id) and per run
	// transition (with a run id). Nil discards everything.
	Logger *slog.Logger
	// CacheMaxBytes bounds the run cache's total size on disk: when the
	// stored runs exceed it, the least-recently-used files are evicted
	// (by mtime, refreshed on every request that uses a run, whether it
	// reads the file or is answered from a held decoded copy). The
	// decoded runs the query endpoints hold in memory have a budget of
	// their own (heldBudget). 0 means unbounded; New rejects a negative
	// bound.
	CacheMaxBytes int64
	// CacheMaxRuns bounds how many runs the cache holds, with the same
	// LRU eviction. 0 means unbounded; New rejects a negative bound.
	CacheMaxRuns int
	// RateLimit is the per-client POST budget in requests per second
	// (token bucket, burst RateBurst). Clients are keyed by bearer
	// token when AuthToken is set (the token is then verified), else by
	// remote IP. 0 disables limiting; New rejects a negative, NaN or
	// infinite rate.
	RateLimit float64
	// RateBurst is the token-bucket depth per client. Values < 1 are
	// treated as 1 when RateLimit is active.
	RateBurst int
	// AuthToken, when set, gates every POST route: requests must carry
	// a matching Authorization: Bearer token or they answer 401. GET
	// routes stay open.
	AuthToken string
}

// The Pool and QueueDepth New uses in place of a value ≤ 0, and the
// defaults of `lockbench serve -pool` and `-queue`.
const (
	DefaultPool       = 2
	DefaultQueueDepth = 64
)

// Server is the benchmark service. Create with New, mount Handler, and
// Close when done (drains in-flight sweeps).
type Server struct {
	cfg   Config
	log   *slog.Logger
	queue chan *job
	wg    sync.WaitGroup
	start time.Time

	mu     sync.Mutex
	jobs   map[string]*job
	closed bool

	simulated atomic.Int64
	reqID     atomic.Uint64
	runID     atomic.Uint64
	metrics   *serverMetrics

	journal *journal
	limiter *limiter

	evictMu    sync.Mutex
	cacheBytes atomic.Int64
	cacheRuns  atomic.Int64

	held *heldRuns
}

// New checks cfg, creates the cache directory and starts the worker
// pool. A config error names the `lockbench serve` flag that sets the
// field.
func New(cfg Config) (*Server, error) {
	switch {
	case cfg.CacheDir == "":
		return nil, errors.New("cache directory must not be empty")
	case cfg.CacheMaxBytes < 0:
		return nil, fmt.Errorf("bad cache-max-bytes %d: want >= 0 (0 = unbounded)", cfg.CacheMaxBytes)
	case cfg.CacheMaxRuns < 0:
		return nil, fmt.Errorf("bad cache-max-runs %d: want >= 0 (0 = unbounded)", cfg.CacheMaxRuns)
	case !(cfg.RateLimit >= 0) || math.IsInf(cfg.RateLimit, 0):
		// !(x >= 0) also rejects NaN, which would silently disable the
		// limit.
		return nil, fmt.Errorf("bad rate %v: want a non-negative, finite requests/second", cfg.RateLimit)
	}
	if cfg.Pool <= 0 {
		cfg.Pool = DefaultPool
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = DefaultQueueDepth
	}
	if err := os.MkdirAll(cfg.CacheDir, 0o755); err != nil {
		return nil, fmt.Errorf("serve: create run cache %s: %w", cfg.CacheDir, err)
	}
	log := cfg.Logger
	if log == nil {
		log = telemetry.Discard()
	}
	s := &Server{
		cfg:   cfg,
		log:   log,
		queue: make(chan *job, cfg.QueueDepth),
		jobs:  map[string]*job{},
		start: time.Now(),
		held:  newHeldRuns(),
	}
	jrnl, pending, err := openJournal(cfg.CacheDir)
	if err != nil {
		return nil, fmt.Errorf("serve: open submission journal: %w", err)
	}
	s.journal = jrnl
	if cfg.RateLimit > 0 {
		s.limiter = newLimiter(cfg.RateLimit, cfg.RateBurst)
	}
	s.metrics = newServerMetrics(s)
	for i := 0; i < cfg.Pool; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	s.replay(pending)
	s.evictPass()
	return s, nil
}

// replay re-queues the submissions a previous process accepted but
// never finished. Keys that landed in the cache anyway (the crash hit
// after the atomic write, before the journal compaction) are simply
// completed, so replay is idempotent and never re-simulates.
func (s *Server) replay(pending []journalEntry) {
	for _, je := range pending {
		if s.touch(je.Key) {
			s.journal.complete(je.Key)
			continue
		}
		e, o, err := je.Resolve()
		if err != nil {
			// The entry can no longer produce the run it promised (an
			// experiment id removed across versions, say); dropping it
			// beats replaying the same failure on every restart.
			s.log.Warn("journal entry unresolvable, dropping", "key", je.Key, "err", err)
			s.journal.complete(je.Key)
			continue
		}
		j, _, err := s.enqueue(je.Key, e, o)
		if err != nil {
			// Queue full: leave the entry pending; the next restart
			// tries again.
			s.log.Warn("journal replay could not enqueue", "key", je.Key, "err", err)
			continue
		}
		if j == nil { // landed since the touch above
			s.journal.complete(je.Key)
			continue
		}
		s.metrics.journalReplayed.Inc()
		s.log.Info("journal replayed", "key", je.Key, "experiment", e.ID)
	}
}

// Close stops accepting submissions and waits for queued and running
// sweeps to finish.
func (s *Server) Close() {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		close(s.queue)
	}
	s.mu.Unlock()
	s.wg.Wait()
	// The pool has drained: every journaled submission either landed
	// (completed below during runJob) or failed (completed too). The
	// final compact leaves a clean-shutdown journal empty.
	s.journal.close()
}

// Simulated returns how many sweeps this server actually simulated —
// cache hits never increment it, which is exactly what the dedupe
// tests assert.
func (s *Server) Simulated() int64 { return s.simulated.Load() }

// worker drains the submission queue; one worker runs one sweep at a
// time.
func (s *Server) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		s.runJob(j)
	}
}

// runJob simulates one submission and lands the result in the cache.
// The cache file is written atomically (tmp + rename), so a concurrent
// GET either sees the complete run or none at all.
func (s *Server) runJob(j *job) {
	rid := s.runID.Add(1)
	log := s.log.With("run", rid, "key", j.key)
	// The submission leaves the journal whatever happens next — landed,
	// failed or panicked. Only a crash of the whole process keeps the
	// entry, and that is exactly the case replay exists for.
	defer s.journal.complete(j.key)
	defer func() {
		if p := recover(); p != nil {
			j.fail(fmt.Sprintf("simulation panicked: %v", p))
			s.metrics.failed.Inc()
			log.Error("run panicked", "panic", p)
		}
	}()
	j.setRunning()
	log.Info("run started", "experiment", j.exp.ID,
		"seed", j.opts.Seed, "scale", j.opts.Scale, "quick", j.opts.Quick)
	start := time.Now()
	var stats sweep.Stats
	eo := j.opts.Options
	eo.Progress = j.progress
	eo.Stats = &stats
	tables := j.exp.Run(eo)
	wall := time.Since(start)
	run := &results.Run{Meta: j.opts.RunMeta(j.exp), Tables: tables}
	run.Meta.Perf = results.NewPerf(wall, int(stats.Cells()))
	b, err := results.Encode(run)
	if err == nil {
		err = results.WriteAtomic(s.cachePath(j.key), b)
	}
	if err != nil {
		j.fail(err.Error())
		s.metrics.failed.Inc()
		log.Error("run failed", "err", err)
		return
	}
	s.simulated.Add(1)
	j.finish()
	// Drop the finished job from the in-flight table: the cache file is
	// authoritative now, and every lookup checks the cache first.
	s.mu.Lock()
	delete(s.jobs, j.key)
	s.mu.Unlock()
	s.evictPass()
	log.Info("run done", "dur", wall.Round(time.Millisecond),
		"cells", stats.Cells(), "cells_per_sec", run.Meta.Perf.CellsPerSec)
}

func (s *Server) cachePath(key string) string {
	return filepath.Join(s.cfg.CacheDir, key+".json")
}

// touch reports whether the run of a key is stored, without reading
// it, and refreshes the file's mtime — the recency signal the LRU
// eviction pass orders by — so runs still in use stay in a bounded
// cache. The refresh doubles as the existence test; when it fails for
// another reason (a cache the server may read but not write), a stat
// decides. Only fs.ErrNotExist means the run is absent, and an absent
// run's held copy is dropped.
func (s *Server) touch(key string) bool {
	path := s.cachePath(key)
	now := time.Now()
	err := os.Chtimes(path, now, now)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		_, err = os.Stat(path)
	}
	if errors.Is(err, fs.ErrNotExist) {
		s.held.drop(key)
		return false
	}
	return true
}

// cachedBytes reads the stored run bytes of a key, refreshing the
// file's mtime like touch. An absent run is nil bytes and a nil error.
func (s *Server) cachedBytes(key string) ([]byte, error) {
	path := s.cachePath(key)
	b, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		s.held.drop(key)
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	now := time.Now()
	// Best effort: a missed refresh only makes the run look older to
	// the eviction pass.
	_ = os.Chtimes(path, now, now)
	return b, nil
}

// readRun reads and decodes the stored run of a key with one read and
// offers it to the held runs, returning the run its query should use.
// The file stays open until heldRuns.hold has compared it with the
// file the path names now, so its inode cannot have been freed and
// reused by a newer file in between.
func (s *Server) readRun(key string) (*results.Run, error) {
	path := s.cachePath(key)
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	// The store replaces files by rename and never writes one in place,
	// so the size read at open is the size of the whole run.
	b := make([]byte, fi.Size())
	if _, err := io.ReadFull(f, b); err != nil {
		return nil, fmt.Errorf("read %s: %w", path, err)
	}
	run, err := results.Decode(b)
	if err != nil {
		return nil, fmt.Errorf("results: decode %s: %w", path, err)
	}
	return s.held.hold(key, path, fi, run), nil
}

// jobFor returns the in-flight (or failed) job of a key, if any.
func (s *Server) jobFor(key string) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[key]
}

var errBusy = errors.New("serve: submission queue is full, retry later")

// enqueue dedupes a submission against the in-flight table, the cache
// and the queue's capacity. It returns the job accepting the submission
// — either a previously submitted identical one (attached true, the
// in-flight flavor of a cache hit) or a fresh one — or no job when the
// run is stored. runJob stores a run before it drops the job from the
// table, so a run that landed after the caller checked the cache is
// found here rather than simulated again.
func (s *Server) enqueue(key string, e experiments.Experiment, o opts.Options) (j *job, attached bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, false, errors.New("serve: shutting down")
	}
	if j, ok := s.jobs[key]; ok && j.active() {
		return j, true, nil
	}
	if s.touch(key) {
		return nil, false, nil
	}
	j = newJob(key, e, o)
	select {
	case s.queue <- j:
		s.jobs[key] = j
		return j, false, nil
	default:
		return nil, false, errBusy
	}
}

// Handler returns the service's HTTP routes. Every route except the
// scrape endpoint itself is instrumented: a per-route latency
// histogram, a monotonic request id and one structured log line.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("GET /metrics", s.metrics.reg.Handler())
	for route, h := range map[string]http.HandlerFunc{
		"GET /healthz":               s.handleHealthz,
		"GET /v1/experiments":        s.handleExperiments,
		"POST /v1/runs":              s.guardPOST(s.handleSubmit),
		"GET /v1/runs":               s.handleList,
		"GET /v1/runs/{key}":         s.handleGet,
		"GET /v1/runs/{key}/slice":   s.handleSlice,
		"GET /v1/runs/{key}/project": s.handleProject,
		"GET /v1/runs/{key}/events":  s.handleEvents,
		"GET /v1/diff":               s.handleDiff,
	} {
		mux.HandleFunc(route, s.instrument(route, h))
	}
	return mux
}

// healthResponse answers GET /healthz: overall readiness plus the
// load indicators an orchestrator's probe wants to see. Status is
// "ok" (HTTP 200) or "degraded" (503, the run cache is not writable —
// simulations would complete and then fail to land).
type healthResponse struct {
	Status        string  `json:"status"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	QueueDepth    int     `json:"queue_depth"`
	QueueCapacity int     `json:"queue_capacity"`
	ActiveJobs    int     `json:"active_jobs"`
	CacheWritable bool    `json:"cache_writable"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	active := 0
	for _, j := range s.jobs {
		if j.active() {
			active++
		}
	}
	s.mu.Unlock()
	resp := healthResponse{
		Status:        "ok",
		UptimeSeconds: time.Since(s.start).Seconds(),
		QueueDepth:    len(s.queue),
		QueueCapacity: cap(s.queue),
		ActiveJobs:    active,
		CacheWritable: true,
	}
	// Probe the cache directory the way runJob's atomic write will use
	// it: if the probe file cannot be created, completed runs cannot
	// land and the server is degraded.
	if f, err := os.CreateTemp(s.cfg.CacheDir, ".healthz-*"); err != nil {
		resp.Status = "degraded"
		resp.CacheWritable = false
	} else {
		f.Close()
		os.Remove(f.Name())
	}
	code := http.StatusOK
	if resp.Status != "ok" {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, resp)
}

// experimentInfo is one row of the /v1/experiments listing — the HTTP
// form of `lockbench -list`.
type experimentInfo struct {
	ID       string `json:"id"`
	Title    string `json:"title"`
	Paper    string `json:"paper"`
	SpecHash string `json:"spec_hash,omitempty"`
}

func (s *Server) handleExperiments(w http.ResponseWriter, _ *http.Request) {
	var out []experimentInfo
	for _, id := range experiments.IDs() {
		e, err := experiments.Find(id)
		if err != nil {
			continue // unreachable: IDs() comes from the registry
		}
		out = append(out, experimentInfo{ID: e.ID, Title: e.Title, Paper: e.Paper, SpecHash: e.SpecHash})
	}
	writeJSON(w, http.StatusOK, map[string]any{"experiments": out})
}

// maxSpecBytes bounds a POSTed scenario spec. Real specs are a few KiB
// of JSON; a body past this answers 413.
const maxSpecBytes = 1 << 20

// submitResponse answers POST /v1/runs.
type submitResponse struct {
	Key        string `json:"key"`
	Experiment string `json:"experiment"`
	Status     string `json:"status"` // cached, queued, running
	URL        string `json:"url"`
}

// handleSubmit accepts a run request: a scenario spec as the body, or
// a registered experiment named with ?experiment=. Options (seed,
// scale, quick, workers) come from the URL query under the shared opts
// schema. The pair resolves through opts.Job.Resolve: an unknown id
// answers 404, any other refusal 400. The submission dedupes on the
// content-addressed cache key: an already-cached run answers "cached"
// immediately and never re-simulates; an in-flight identical
// submission attaches to the existing job.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	// MaxBytesReader errors distinctly at the limit instead of silently
	// truncating: an oversized spec answers 413 naming the bound, not a
	// baffling JSON parse 400 over the first maxSpecBytes of it.
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			s.metrics.oversized.Inc()
			http.Error(w, fmt.Sprintf("scenario spec exceeds the %d-byte limit", maxSpecBytes),
				http.StatusRequestEntityTooLarge)
			return
		}
		http.Error(w, "read body: "+err.Error(), http.StatusBadRequest)
		return
	}
	q := r.URL.Query()
	job := opts.Job{Scenario: bytes.TrimSpace(body)}
	if vs := q["experiment"]; len(vs) > 0 {
		job.Experiment = vs[len(vs)-1]
		q.Del("experiment")
	}
	o, err := opts.ApplyQuery(opts.Defaults(), q, "seed", "scale", "quick", "workers")
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	job.Seed, job.Scale, job.Quick, job.Workers = o.Seed, o.Scale, o.Quick, o.Workers
	e, o, err := job.Resolve()
	if err != nil {
		code := http.StatusBadRequest
		if errors.Is(err, experiments.ErrUnknown) {
			code = http.StatusNotFound
		}
		http.Error(w, err.Error(), code)
		return
	}

	key := o.RunMeta(e).CacheKey()
	resp := submitResponse{Key: key, Experiment: e.ID, URL: "/v1/runs/" + key}
	cached := func() {
		s.metrics.cacheHits.Inc()
		resp.Status = statusCached
		writeJSON(w, http.StatusOK, resp)
	}
	if s.touch(key) {
		cached()
		return
	}
	// Journal before queue: once the entry is durable, a crash between
	// the 202 and the run landing cannot lose the submission — the next
	// start replays it.
	if err := s.journal.append(journalEntry{Key: key, Job: job}); err != nil {
		http.Error(w, "journal write failed: "+err.Error(), http.StatusInternalServerError)
		return
	}
	j, attached, err := s.enqueue(key, e, o)
	if err != nil {
		// The submission was refused, so its journal entry must not
		// survive to be replayed as if it had been accepted.
		s.journal.complete(key)
		s.metrics.rejected.Inc()
		if errors.Is(err, errBusy) {
			// The queue drains as running sweeps finish; hint the
			// client at a short backoff instead of a tight retry loop.
			w.Header().Set("Retry-After", "1")
		}
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}
	if j == nil {
		// The run landed after the touch above, so this submission is
		// a cache hit and its journal entry is done.
		s.journal.complete(key)
		cached()
		return
	}
	if attached {
		// Joining an identical in-flight submission is the other form
		// of a cache hit: this request triggers no simulation either.
		s.metrics.cacheHits.Inc()
	} else {
		s.metrics.cacheMisses.Inc()
	}
	resp.Status = j.snapshot().Status
	writeJSON(w, http.StatusAccepted, resp)
}

// handleList answers GET /v1/runs: the cached corpus plus in-flight
// submissions.
func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	stored, err := results.ListStored(s.cfg.CacheDir)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	s.mu.Lock()
	active := make([]Event, 0, len(s.jobs))
	for _, j := range s.jobs {
		active = append(active, j.snapshot())
	}
	s.mu.Unlock()
	sort.Slice(active, func(i, j int) bool { return active[i].Key < active[j].Key })
	writeJSON(w, http.StatusOK, map[string]any{"runs": stored, "active": active})
}

// handleGet serves the stored run bytes of a key — the exact bytes the
// CLI's -json store would hold — or the submission's status while it
// is still in flight.
func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	if !validKey(key) {
		http.Error(w, "bad run key", http.StatusBadRequest)
		return
	}
	b, err := s.cachedBytes(key)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	if b != nil {
		s.metrics.runsServed.Inc()
		w.Header().Set("Content-Type", "application/json")
		w.Write(b)
		return
	}
	s.notStored(w, key)
}

// loadCached returns the stored run of a key for the query endpoints,
// writing the error response itself when the run is not servable. A
// held run answers without reading its file; any other is read and
// decoded once, then held for later queries. The returned run may be
// shared with concurrent queries, so callers must not modify it.
func (s *Server) loadCached(w http.ResponseWriter, key string) *results.Run {
	if !validKey(key) {
		http.Error(w, "bad run key", http.StatusBadRequest)
		return nil
	}
	if !s.touch(key) {
		s.notStored(w, key)
		return nil
	}
	if run := s.held.get(key); run != nil {
		return run
	}
	run, err := s.readRun(key)
	if errors.Is(err, fs.ErrNotExist) {
		// Evicted since the touch.
		s.notStored(w, key)
		return nil
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return nil
	}
	return run
}

// notStored answers a GET or a query for a key with no stored run:
// the submission's status, 202 while it is in flight and 500 once it
// failed (failed jobs stay in the table), else 404. So a client that
// polls until the answer is no longer 202 stops on a failed run too.
func (s *Server) notStored(w http.ResponseWriter, key string) {
	if j := s.jobFor(key); j != nil {
		ev := j.snapshot()
		code := http.StatusAccepted
		if ev.Status == statusFailed {
			code = http.StatusInternalServerError
		}
		writeJSON(w, code, ev)
		return
	}
	http.Error(w, "no such run (POST /v1/runs to submit one)", http.StatusNotFound)
}

// handleSlice answers GET /v1/runs/{key}/slice?axis=value[&axis=value]:
// every query parameter is one axis fix, exactly the CLI's -slice
// pairs. The response is the results.Encode bytes of the sliced run —
// byte-identical to the file `lockbench -load <run> -slice … -json`
// saves.
func (s *Server) handleSlice(w http.ResponseWriter, r *http.Request) {
	run := s.loadCached(w, r.PathValue("key"))
	if run == nil {
		return
	}
	q := r.URL.Query()
	keys := make([]string, 0, len(q))
	for k := range q {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var fixes []results.Fix
	for _, k := range keys {
		vs := q[k]
		fixes = append(fixes, results.Fix{Axis: k, Value: vs[len(vs)-1]})
	}
	sliced, err := results.Slice(run, fixes)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	s.writeRun(w, sliced)
}

// handleProject answers GET /v1/runs/{key}/project?axes=a,b — the
// CLI's -project. An empty axes value collapses every axis into the
// grand-total row.
func (s *Server) handleProject(w http.ResponseWriter, r *http.Request) {
	run := s.loadCached(w, r.PathValue("key"))
	if run == nil {
		return
	}
	q := r.URL.Query()
	if !q.Has("axes") {
		http.Error(w, "project wants ?axes=<axis,axis,...> (empty value folds everything into one row)", http.StatusBadRequest)
		return
	}
	for k := range q {
		if k != "axes" {
			http.Error(w, fmt.Sprintf("unknown parameter %q (accepted: axes)", k), http.StatusBadRequest)
			return
		}
	}
	vs := q["axes"]
	keep, err := opts.ParseProject(vs[len(vs)-1])
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	projected, err := results.Project(run, keep)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	s.writeRun(w, projected)
}

// diffResponse answers GET /v1/diff.
type diffResponse struct {
	A           string  `json:"a"`
	B           string  `json:"b"`
	Tol         float64 `json:"tol"`
	Equal       bool    `json:"equal"`
	Differences int     `json:"differences"`
	Report      string  `json:"report"`
}

// handleDiff answers GET /v1/diff?a=<key>&b=<key>[&tol=…][&tol_cols=…]
// [&slice=…][&project=…]: run b diffs against baseline a under the
// shared tolerance options, with the same plane-wise semantics as the
// CLI's -baseline/-diff under an active query.
func (s *Server) handleDiff(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	a, b := q.Get("a"), q.Get("b")
	q.Del("a")
	q.Del("b")
	if a == "" || b == "" {
		http.Error(w, "diff wants ?a=<baseline key>&b=<current key>", http.StatusBadRequest)
		return
	}
	o, err := opts.ApplyQuery(opts.Defaults(), q, "tol", "tol_cols", "slice", "project")
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	base := s.loadCached(w, a)
	if base == nil {
		return
	}
	cur := s.loadCached(w, b)
	if cur == nil {
		return
	}
	query := o.Query()
	cur, err = query.Apply(cur)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	rep, err := query.Compare(base, cur, o.Tolerance())
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	writeJSON(w, http.StatusOK, diffResponse{
		A: a, B: b, Tol: o.Tol,
		Equal: rep.Empty(), Differences: rep.NumDiffs(), Report: rep.String(),
	})
}

// handleEvents streams a submission's sweep progress as server-sent
// events: one "progress" event per finished grid cell, then a terminal
// "done" (or "failed") event. A key that is already cached answers
// with the terminal event immediately.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	if !validKey(key) {
		http.Error(w, "bad run key", http.StatusBadRequest)
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")

	send := func(ev Event) {
		name := "progress"
		if ev.Terminal() {
			name = ev.Status
		}
		data, _ := json.Marshal(ev)
		fmt.Fprintf(w, "event: %s\ndata: %s\n\n", name, data)
		fl.Flush()
	}

	j := s.jobFor(key)
	if j == nil {
		if s.touch(key) {
			send(Event{Key: key, Status: statusDone})
			return
		}
		http.Error(w, "no such run (POST /v1/runs to submit one)", http.StatusNotFound)
		return
	}
	ch, cancel := j.subscribe()
	defer cancel()
	s.metrics.sseSubs.Add(1)
	defer s.metrics.sseSubs.Add(-1)
	send(j.snapshot())
	for {
		select {
		case <-r.Context().Done():
			return
		case ev, ok := <-ch:
			if !ok {
				// Channel closed; the terminal event may have been
				// dropped by a full buffer, so re-derive it from the
				// job's final state.
				send(j.snapshot())
				return
			}
			send(ev)
			if ev.Terminal() {
				return
			}
		}
	}
}

// writeRun serves a (possibly queried) run in the store's byte
// encoding, counting it as a served run.
func (s *Server) writeRun(w http.ResponseWriter, r *results.Run) {
	b, err := results.Encode(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	s.metrics.runsServed.Inc()
	w.Header().Set("Content-Type", "application/json")
	w.Write(b)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(append(b, '\n'))
}

// validKey accepts the characters cache keys are built from
// (results.Meta.CacheKey sanitizes to [A-Za-z0-9._-]) and rejects
// anything that could escape the cache directory.
func validKey(key string) bool {
	if key == "" || key == "." || key == ".." {
		return false
	}
	for _, r := range key {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '_', r == '-':
		default:
			return false
		}
	}
	return true
}
