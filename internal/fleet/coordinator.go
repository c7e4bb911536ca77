package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sort"
	"sync"
	"time"

	"lockin/internal/bench/opts"
	"lockin/internal/experiments"
	"lockin/internal/results"
	"lockin/internal/telemetry"
)

// Config tunes a Coordinator.
type Config struct {
	// Job is the sweep to distribute. Exactly one of Job.Experiment and
	// Job.Scenario must be set, and its options must validate
	// (opts.Job.Resolve). Required.
	Job JobSpec
	// Expect is the worker count the chunk schedule is sized for:
	// chunks start near total/(2·Expect) coordinates and shrink
	// geometrically (guided self-scheduling), so early chunks amortize
	// lease round-trips and late chunks keep the fleet load-balanced.
	// More workers than Expect still help — they steal the queue dry —
	// it only shifts the chunk-size curve. Default 4.
	Expect int
	// LeaseTTL is how long a worker holds a chunk before it is
	// presumed dead and the chunk returns to the queue. Default 2m —
	// generous, because a false expiry only costs duplicate work, never
	// correctness (the duplicate chunk is byte-identical and the first
	// copy to merge wins).
	LeaseTTL time.Duration
	// Logger receives lease/merge lifecycle records. Nil discards.
	Logger *slog.Logger
	// now is the test clock hook.
	now func() time.Time
	// minChunk floors the chunk width in coordinates (test hook; 0 = 1,
	// the finest stealable grain).
	minChunk int
	// maxBodyBytes overrides the request-body bound (test hook;
	// 0 = the default maxResultBytes).
	maxBodyBytes int64
}

// chunk is one not-yet-leased piece of the cell space.
type chunk struct {
	lo, hi int
	cost   float64
	// prevWorker names who held the chunk when its lease expired
	// ("" = never leased) — re-leasing to someone else counts as a
	// steal.
	prevWorker string
}

// leaseState is one outstanding lease.
type leaseState struct {
	Lease
	worker string
	ck     chunk
}

// workerState accumulates one worker's per-fleet counters and its
// labeled metric series (memoized: the telemetry registry panics on
// duplicate registration).
type workerState struct {
	cells  uint64
	chunks uint64
	busy   time.Duration
	mCells *telemetry.Counter
	mBusy  *telemetry.Counter
	// dismissed: the coordinator has answered this worker done.
	dismissed bool
}

// gridInfo is one surveyed grid: its cell count and per-cell cost
// hints (1.0 when the grid declares none).
type gridInfo struct {
	cells int
	hints []float64
}

// Coordinator owns the chunk queue, the outstanding leases and the
// merge-on-arrival state of one distributed sweep. Create with New,
// mount Handler, and Wait for the merged run.
type Coordinator struct {
	cfg   Config
	exp   experiments.Experiment
	total int // chunk coordinate space (the largest grid's cell count)
	cells int // actual cells across all grids, for provenance
	grids []gridInfo
	start time.Time

	mu       sync.Mutex
	queue    []chunk // sorted: estimated cost descending, then lo ascending
	leases   map[uint64]*leaseState
	segments []*results.Run // disjoint merged ranges, sorted by Range.Lo
	workers  map[string]*workerState
	nextID   uint64
	result   *results.Run
	done     chan struct{}
	// dismissed is closed once the run is complete and every worker
	// seen so far has been answered done (see Dismissed).
	dismissed chan struct{}
	// changed is closed and replaced (wakeLocked) whenever a held lease
	// request could get a different answer: the run completed, or a
	// chunk went back to the queue.
	changed chan struct{}
	held    int // lease requests blocked in grant

	reg       *telemetry.Registry
	issued    *telemetry.Counter
	expired   *telemetry.Counter
	stolen    *telemetry.Counter
	merged    *telemetry.Counter
	discarded *telemetry.Counter
	oversized *telemetry.Counter
}

// New resolves the job (opts.Job.Resolve, the same validation every
// worker applies), surveys its grids (no simulation) and builds the
// chunk schedule.
func New(cfg Config) (*Coordinator, error) {
	if cfg.Expect <= 0 {
		cfg.Expect = 4
	}
	if cfg.minChunk <= 0 {
		cfg.minChunk = 1
	}
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = 2 * time.Minute
	}
	if cfg.Logger == nil {
		cfg.Logger = telemetry.Discard()
	}
	if cfg.now == nil {
		cfg.now = time.Now
	}
	e, o, err := cfg.Job.Resolve()
	if err != nil {
		return nil, err
	}
	c := &Coordinator{
		cfg:       cfg,
		exp:       e,
		start:     cfg.now(),
		leases:    map[uint64]*leaseState{},
		workers:   map[string]*workerState{},
		done:      make(chan struct{}),
		dismissed: make(chan struct{}),
		changed:   make(chan struct{}),
	}
	c.survey(o)
	if c.total == 0 {
		return nil, fmt.Errorf("fleet: %s has no grid cells to distribute", e.ID)
	}
	c.buildChunks()
	c.registerMetrics()
	cfg.Logger.Info("fleet planned", "experiment", e.ID, "cells", c.cells,
		"coordinates", c.total, "chunks", len(c.queue), "lease_ttl", cfg.LeaseTTL)
	return c, nil
}

// survey enumerates the experiment's grids under the job's options
// without simulating: each grid reports its size and cost hints
// through sweep.Options.Survey and returns before executing any cell.
func (c *Coordinator) survey(o opts.Options) {
	eo := o.Options
	eo.Survey = func(cells int, cost func(index int) float64) {
		g := gridInfo{cells: cells, hints: make([]float64, cells)}
		for i := range g.hints {
			g.hints[i] = 1
			if cost != nil {
				g.hints[i] = cost(i)
			}
		}
		c.grids = append(c.grids, g)
		c.cells += cells
		if cells > c.total {
			c.total = cells
		}
	}
	c.exp.Run(eo)
}

// chunkCost estimates one coordinate range's simulation cost: the sum
// of the cost hints of every grid cell the range maps onto
// (sweep.Options.ShardRange arithmetic), across all grids.
func (c *Coordinator) chunkCost(lo, hi int) float64 {
	var sum float64
	for _, g := range c.grids {
		glo, ghi := g.cells*lo/c.total, g.cells*hi/c.total
		for i := glo; i < ghi; i++ {
			sum += g.hints[i]
		}
	}
	return sum
}

// buildChunks cuts [0,total) into geometrically shrinking chunks and
// orders them most-expensive-first, so the costliest work starts
// earliest and the tail of the schedule is fine-grained enough to
// balance whatever skew the hints missed.
func (c *Coordinator) buildChunks() {
	remaining := c.total
	for remaining > 0 {
		w := remaining / (2 * c.cfg.Expect)
		if w < c.cfg.minChunk {
			w = c.cfg.minChunk
		}
		if w > remaining {
			w = remaining
		}
		lo := c.total - remaining
		c.queue = append(c.queue, chunk{lo: lo, hi: lo + w, cost: c.chunkCost(lo, lo+w)})
		remaining -= w
	}
	sortChunks(c.queue)
}

// sortChunks orders hand-out: estimated cost descending, index
// ascending on ties — deterministic for a fixed grid and hint set.
func sortChunks(cks []chunk) {
	sort.SliceStable(cks, func(i, j int) bool {
		if cks[i].cost != cks[j].cost {
			return cks[i].cost > cks[j].cost
		}
		return cks[i].lo < cks[j].lo
	})
}

func (c *Coordinator) registerMetrics() {
	c.reg = telemetry.NewRegistry()
	c.issued = c.reg.Counter("fleet_leases_issued_total", "chunk leases handed to workers")
	c.expired = c.reg.Counter("fleet_leases_expired_total", "leases that passed their deadline and were requeued")
	c.stolen = c.reg.Counter("fleet_leases_stolen_total", "expired chunks re-leased to a different worker")
	c.merged = c.reg.Counter("fleet_chunks_merged_total", "chunk results merged into the run")
	c.discarded = c.reg.Counter("fleet_chunks_discarded_total", "late duplicate chunk results dropped")
	c.oversized = c.reg.Counter("fleet_oversized_bodies_total", "request bodies rejected 413 for exceeding the result-size limit")
	c.reg.GaugeFunc("fleet_chunks_queued", "chunks waiting to be leased", func() float64 {
		c.mu.Lock()
		defer c.mu.Unlock()
		return float64(len(c.queue))
	})
	c.reg.GaugeFunc("fleet_leases_outstanding", "chunks currently leased out", func() float64 {
		c.mu.Lock()
		defer c.mu.Unlock()
		return float64(len(c.leases))
	})
	c.reg.GaugeFunc("fleet_lease_requests_held", "idle workers' lease requests waiting for a chunk or the end of the run", func() float64 {
		c.mu.Lock()
		defer c.mu.Unlock()
		return float64(c.held)
	})
	c.reg.GaugeFunc("fleet_coordinates_covered", "cell coordinates merged so far", func() float64 {
		c.mu.Lock()
		defer c.mu.Unlock()
		return float64(c.coveredLocked())
	})
}

// workerLocked returns (creating on first sight) one worker's state.
func (c *Coordinator) workerLocked(name string) *workerState {
	w := c.workers[name]
	if w == nil {
		lbl := telemetry.Label("worker", name)
		w = &workerState{
			mCells: c.reg.LabeledCounter("fleet_worker_cells_total", "grid cells simulated per worker", lbl),
			mBusy:  c.reg.LabeledCounter("fleet_worker_busy_ms_total", "sweep busy time per worker (milliseconds)", lbl),
		}
		c.workers[name] = w
	}
	return w
}

// coveredLocked sums the coordinates of the merged segments (total
// when the run completed).
func (c *Coordinator) coveredLocked() int {
	if c.result != nil {
		return c.total
	}
	n := 0
	for _, s := range c.segments {
		if r := s.Meta.Range; r != nil {
			n += r.Hi - r.Lo
		}
	}
	return n
}

// reapLocked requeues every lease whose deadline has passed — the
// steal path — and wakes the held lease requests to take them. Runs on
// every pass of grant, so a fleet with at least one live worker always
// reclaims dead workers' chunks, at most maxHold after their deadline.
func (c *Coordinator) reapLocked(now time.Time) {
	queued := len(c.queue)
	for id, l := range c.leases {
		if now.Before(l.Deadline) {
			continue
		}
		delete(c.leases, id)
		ck := l.ck
		ck.prevWorker = l.worker
		c.queue = append(c.queue, ck)
		c.expired.Inc()
		c.cfg.Logger.Warn("lease expired", "lease", id, "worker", l.worker,
			"lo", ck.lo, "hi", ck.hi)
	}
	if len(c.queue) > queued {
		sortChunks(c.queue)
		c.wakeLocked()
	}
}

// wakeLocked wakes every held lease request to look again.
func (c *Coordinator) wakeLocked() {
	close(c.changed)
	c.changed = make(chan struct{})
}

// grant pops the best chunk for a worker, or reports done. While every
// chunk is leased out it holds the request, without c.mu, until the
// run completes or a chunk returns to the queue, so an idle worker
// hears either the moment it happens. After maxHold, or once ctx ends
// (the worker hung up), it answers wait and the worker asks again.
func (c *Coordinator) grant(ctx context.Context, worker string) leaseResponse {
	ctx, cancel := context.WithTimeout(ctx, maxHold(c.cfg.LeaseTTL))
	defer cancel()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.workerLocked(worker)
	for {
		if c.result != nil {
			c.dismissLocked(worker)
			return leaseResponse{Done: true}
		}
		c.reapLocked(c.cfg.now())
		if len(c.queue) > 0 {
			break
		}
		if ctx.Err() != nil {
			return leaseResponse{Wait: true}
		}
		changed := c.changed
		c.held++
		c.mu.Unlock()
		select {
		case <-changed:
		case <-ctx.Done():
		}
		c.mu.Lock()
		c.held--
	}
	ck := c.queue[0]
	c.queue = c.queue[1:]
	c.nextID++
	l := &leaseState{
		Lease: Lease{
			ID: c.nextID, Lo: ck.lo, Hi: ck.hi, Total: c.total,
			Deadline: c.cfg.now().Add(c.cfg.LeaseTTL),
		},
		worker: worker,
		ck:     ck,
	}
	c.leases[l.ID] = l
	c.issued.Inc()
	if ck.prevWorker != "" && ck.prevWorker != worker {
		c.stolen.Inc()
		c.cfg.Logger.Info("chunk stolen", "lease", l.ID, "worker", worker,
			"from", ck.prevWorker, "lo", ck.lo, "hi", ck.hi)
	}
	job := c.cfg.Job
	return leaseResponse{Lease: &l.Lease, Job: &job}
}

// maxHold bounds how long grant holds a lease request it has nothing
// for: an eighth of the lease TTL, within [50ms, 1s]. Expired leases
// are reaped only inside grant, so this is also how late after its
// deadline an idle worker steals a chunk; and it keeps a held request
// well inside the worker's HTTP client timeout (WorkerConfig.Client).
func maxHold(ttl time.Duration) time.Duration {
	return min(max(ttl/8, 50*time.Millisecond), time.Second)
}

// accept merges one posted chunk result. The lease may have expired:
// if the chunk is back in the queue the result is accepted anyway
// (the work is done — no point re-running it); if it was already
// re-leased or merged, the bytes are discarded, which is safe because
// any duplicate execution of the same range is byte-identical.
func (c *Coordinator) accept(req resultRequest) (resultResponse, error) {
	part, err := results.Decode(req.Run)
	if err != nil {
		return resultResponse{}, fmt.Errorf("fleet: undecodable chunk result: %w", err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.result != nil {
		c.dismissLocked(req.Worker)
		return resultResponse{Done: true, Discarded: true}, nil
	}
	lo, hi := partRange(part, c.total)
	l, live := c.leases[req.LeaseID]
	switch {
	case live:
		if l.ck.lo != lo || l.ck.hi != hi {
			return resultResponse{}, fmt.Errorf("fleet: lease %d covers [%d,%d) but the result covers [%d,%d)",
				req.LeaseID, l.ck.lo, l.ck.hi, lo, hi)
		}
		delete(c.leases, req.LeaseID)
	case c.takeQueuedLocked(lo, hi):
		// Expired but not yet re-run: accept the late result and drop
		// the requeued copy.
	default:
		c.discarded.Inc()
		return resultResponse{Discarded: true}, nil
	}
	if err := c.mergeLocked(part); err != nil {
		// A chunk that refuses to merge (stale spec revision, wrong
		// seed) must not poison the run: put the range back in the
		// queue for a healthy worker and reject this one.
		c.queue = append(c.queue, chunk{lo: lo, hi: hi, cost: c.chunkCost(lo, hi)})
		sortChunks(c.queue)
		c.wakeLocked()
		return resultResponse{}, err
	}
	w := c.workerLocked(req.Worker)
	cells := c.rangeCells(lo, hi)
	w.cells += uint64(cells)
	w.chunks++
	w.busy += time.Duration(req.BusyMS) * time.Millisecond
	w.mCells.Add(uint64(cells))
	w.mBusy.Add(uint64(req.BusyMS))
	c.merged.Inc()
	c.cfg.Logger.Info("chunk merged", "worker", req.Worker, "lo", lo, "hi", hi,
		"cells", cells, "covered", c.coveredLocked(), "total", c.total)
	if c.result != nil {
		c.dismissLocked(req.Worker)
		return resultResponse{OK: true, Done: true}, nil
	}
	return resultResponse{OK: true}, nil
}

// partRange reads a chunk result's coordinates: its Range metadata,
// or the whole space when the metadata says "full run" (a single
// chunk covered everything, so the worker's Meta carries no range).
func partRange(part *results.Run, total int) (lo, hi int) {
	if r := part.Meta.Range; r != nil {
		return r.Lo, r.Hi
	}
	return 0, total
}

// takeQueuedLocked removes the exact chunk [lo,hi) from the queue if
// it is waiting there, reporting whether it was found.
func (c *Coordinator) takeQueuedLocked(lo, hi int) bool {
	for i, ck := range c.queue {
		if ck.lo == lo && ck.hi == hi {
			c.queue = append(c.queue[:i], c.queue[i+1:]...)
			return true
		}
	}
	return false
}

// rangeCells counts the actual grid cells a coordinate range maps to.
func (c *Coordinator) rangeCells(lo, hi int) int {
	n := 0
	for _, g := range c.grids {
		n += g.cells*hi/c.total - g.cells*lo/c.total
	}
	return n
}

// mergeLocked inserts a partial run into the disjoint segment list and
// coalesces contiguous neighbors (results.MergeRanges); when one
// segment covers the whole space the merge clears its Range, the
// experiment's Reduce folds the merged rows, and the run is complete.
func (c *Coordinator) mergeLocked(part *results.Run) error {
	if part.Meta.Range == nil {
		// One chunk covered the whole space; the part IS the run, which
		// the worker's Run already reduced.
		c.completeLocked(part)
		return nil
	}
	c.segments = append(c.segments, part)
	sort.Slice(c.segments, func(i, j int) bool {
		return c.segments[i].Meta.Range.Lo < c.segments[j].Meta.Range.Lo
	})
	for i := 0; i+1 < len(c.segments); {
		a, b := c.segments[i], c.segments[i+1]
		if a.Meta.Range.Hi != b.Meta.Range.Lo {
			i++
			continue
		}
		m, err := results.MergeRanges(a, b)
		if err != nil {
			// Roll the offending part back out so a healthy retry can
			// land later; the caller requeues its range.
			c.segments = removeRun(c.segments, part)
			return err
		}
		c.segments[i] = m
		c.segments = append(c.segments[:i+1], c.segments[i+2:]...)
		if m.Meta.Range == nil {
			m.Tables = c.exp.Fold(m.Tables)
			c.completeLocked(m)
			return nil
		}
	}
	return nil
}

func removeRun(runs []*results.Run, target *results.Run) []*results.Run {
	for i, r := range runs {
		if r == target {
			return append(runs[:i], runs[i+1:]...)
		}
	}
	return runs
}

// completeLocked records the finished run: provenance stamped the way
// the CLI's simulate path does (Perf is excluded from comparisons and
// cache identity, so the merged bytes still match a serial run).
func (c *Coordinator) completeLocked(run *results.Run) {
	run.Meta.Perf = results.NewPerf(c.cfg.now().Sub(c.start), c.cells)
	c.result = run
	c.segments = nil
	close(c.done)
	c.wakeLocked()
	c.cfg.Logger.Info("fleet complete", "experiment", c.exp.ID, "cells", c.cells,
		"wall", c.cfg.now().Sub(c.start).Round(time.Millisecond))
}

// dismissLocked records that worker is being answered done, and closes
// dismissed when it was the last worker seen still to hear it. Only
// called once the run is complete.
func (c *Coordinator) dismissLocked(worker string) {
	c.workerLocked(worker).dismissed = true
	for _, w := range c.workers {
		if !w.dismissed {
			return
		}
	}
	select {
	case <-c.dismissed:
	default:
		close(c.dismissed)
	}
}

// Done is closed when the merged run is complete.
func (c *Coordinator) Done() <-chan struct{} { return c.done }

// Dismissed is closed once the run is complete and every worker the
// coordinator has seen has been answered done, in a lease or a result
// response. A worker whose chunk merged just before another's completed
// the run is between its result and its next lease request when Done
// closes; a process that serves the coordinator should wait here, for
// at most MaxHold, before it stops listening, or that worker finds no
// one to tell it the run is over.
func (c *Coordinator) Dismissed() <-chan struct{} { return c.dismissed }

// MaxHold is the longest the coordinator holds an idle worker's lease
// request (see maxHold): at most 1s.
func (c *Coordinator) MaxHold() time.Duration { return maxHold(c.cfg.LeaseTTL) }

// Result returns the merged run once Done is closed (nil before).
func (c *Coordinator) Result() *results.Run {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.result
}

// Status snapshots the fleet for the status endpoint.
func (c *Coordinator) Status() Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := Status{
		Experiment: c.exp.ID,
		Total:      c.total,
		Covered:    c.coveredLocked(),
		Queued:     len(c.queue),
		Leased:     len(c.leases),
		Done:       c.result != nil,
	}
	for _, s := range c.segments {
		st.Segments = append(st.Segments, s.Meta.Range.String())
	}
	names := make([]string, 0, len(c.workers))
	for n := range c.workers {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		w := c.workers[n]
		st.Workers = append(st.Workers, WorkerStatus{
			Name: n, Cells: w.cells, Chunks: w.chunks, Busy: w.busy,
		})
	}
	return st
}

// Handler returns the coordinator's HTTP routes.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("GET /metrics", c.reg.Handler())
	mux.HandleFunc("GET /fleet/v1/status", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, c.Status())
	})
	mux.HandleFunc("POST /fleet/v1/lease", func(w http.ResponseWriter, r *http.Request) {
		var req leaseRequest
		if err := readJSON(r, &req, c.maxBody()); err != nil {
			c.rejectBody(w, "/fleet/v1/lease", err)
			return
		}
		if req.Worker == "" {
			http.Error(w, "fleet: lease request without a worker name", http.StatusBadRequest)
			return
		}
		writeJSON(w, http.StatusOK, c.grant(r.Context(), req.Worker))
	})
	mux.HandleFunc("POST /fleet/v1/result", func(w http.ResponseWriter, r *http.Request) {
		var req resultRequest
		if err := readJSON(r, &req, c.maxBody()); err != nil {
			c.rejectBody(w, "/fleet/v1/result", err)
			return
		}
		resp, err := c.accept(req)
		if err != nil {
			// 409: the chunk conflicts with the run (stale spec, wrong
			// range) — the worker's copy is wrong, not the request shape.
			http.Error(w, err.Error(), http.StatusConflict)
			return
		}
		writeJSON(w, http.StatusOK, resp)
	})
	return mux
}

// maxResultBytes bounds a posted chunk (a full quick run is tens of
// kilobytes; 64 MiB leaves room for large -scale tables).
const maxResultBytes = 64 << 20

// errBodyTooLarge marks a request body that hit the size bound. It
// must be distinguishable from a decode error: a truncated chunk
// result that surfaced as "decode body" would make the worker look
// buggy and burn a full lease TTL before the chunk is stolen, when the
// real problem is the limit.
var errBodyTooLarge = errors.New("fleet: request body exceeds the size limit")

// maxBody is the request-body bound handlers read under.
func (c *Coordinator) maxBody() int64 {
	if c.cfg.maxBodyBytes > 0 {
		return c.cfg.maxBodyBytes
	}
	return maxResultBytes
}

// readJSON decodes a request body of at most limit bytes. Reading
// limit+1 makes hitting the bound detectable (a LimitReader alone
// truncates silently and the loss surfaces as a baffling decode error
// downstream).
func readJSON(r *http.Request, v any, limit int64) error {
	b, err := io.ReadAll(io.LimitReader(r.Body, limit+1))
	if err != nil {
		return fmt.Errorf("fleet: read body: %w", err)
	}
	if int64(len(b)) > limit {
		return fmt.Errorf("%w (%d bytes)", errBodyTooLarge, limit)
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("fleet: decode body: %w", err)
	}
	return nil
}

// rejectBody answers a readJSON failure: 413 with a distinct log line
// and counter when the body hit the size bound, else a plain 400.
func (c *Coordinator) rejectBody(w http.ResponseWriter, path string, err error) {
	if errors.Is(err, errBodyTooLarge) {
		c.oversized.Inc()
		c.cfg.Logger.Error("oversized request body", "path", path, "limit", c.maxBody())
		http.Error(w, err.Error(), http.StatusRequestEntityTooLarge)
		return
	}
	http.Error(w, err.Error(), http.StatusBadRequest)
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
