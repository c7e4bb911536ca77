// Package fleet distributes one sweep across processes with
// work-stealing instead of a hand-planned static split. The CLI's
// -shard i/n asks the operator to guess a fair partition up front; on
// skewed grids (simulation cost grows with thread count) the unlucky
// shard straggles while the others idle. Here a coordinator enumerates
// the experiment's grids without simulating (sweep.Options.Survey),
// cuts the cell space into chunks — large first, geometrically
// shrinking, most expensive handed out first — and leases them to
// however many workers show up. Workers execute leased chunks through
// the ordinary sweep engine as contiguous cell ranges
// (sweep.Options.RangeLo/Hi/Total) and POST each finished chunk back;
// the coordinator merges arrivals into coalescing contiguous segments
// (results.MergeRanges) and completes when one segment covers the
// whole cell space.
//
// Leases carry deadlines. A worker that dies mid-chunk simply never
// reports; when its deadline passes, the chunk returns to the queue
// and the next idle worker steals it. Because every cell's result
// depends only on its index-derived seed (sweep.CellSeed), the merged
// run is byte-identical (modulo Meta.Perf provenance) to a single
// serial run no matter how the chunks landed, moved, or were re-run.
//
// The protocol is three JSON-over-HTTP endpoints on the coordinator:
//
//	POST /fleet/v1/lease   {worker} → {lease, job} | {wait} | {done}
//	POST /fleet/v1/result  {worker, lease_id, busy_ms, run} → {ok} | {done}
//	GET  /fleet/v1/status  coverage, queue, leases, per-worker counters
//	GET  /metrics          Prometheus text (leases issued/expired/stolen,
//	                       lease requests held, per-worker cells and
//	                       busy time)
//
// A lease request with nothing to hand out is held, not refused: the
// coordinator answers it the moment a chunk returns to the queue (an
// expired lease, a rejected result) or the run completes. Only a hold
// that reaches its bound (maxHold, ≤1s) answers {wait}, and the worker
// asks again at once, so an idle worker hears "done" when the last
// chunk merges instead of a polling interval later.
//
// A lease's job is a JobSpec in its JSON form: {experiment} or {spec}
// — a scenario spec travels under "spec", as in the service's
// journal — plus seed, scale, quick and workers.
package fleet

import (
	"encoding/json"
	"time"

	"lockin/internal/bench/opts"
)

// JobSpec tells a joining worker what to simulate: the shared job type
// every front end resolves through (opts.Job.Resolve). Every worker
// runs the exact same experiment under the exact same seed/scale/quick
// — and records the same Workers value, its per-process sweep
// parallelism, in its chunk metadata — or the merged run could not be
// byte-identical to a serial one. A scenario spec's compiled hash lands
// in every chunk's metadata, so a worker holding a stale spec revision
// is rejected at merge time instead of corrupting the run.
type JobSpec = opts.Job

// Lease is one chunk of the cell space, granted to one worker until
// its deadline. Lo/Hi/Total are generalized shard coordinates
// (sweep.Options.ShardRange): a grid of n cells executes
// [n·Lo/Total, n·Hi/Total), so one lease addresses the matching slice
// of every grid of a multi-grid experiment.
type Lease struct {
	ID       uint64    `json:"id"`
	Lo       int       `json:"lo"`
	Hi       int       `json:"hi"`
	Total    int       `json:"total"`
	Deadline time.Time `json:"deadline"`
}

// leaseRequest is the body of POST /fleet/v1/lease.
type leaseRequest struct {
	// Worker names the requester for status and per-worker metrics;
	// anything stable per process works (the CLI default is host:pid).
	Worker string `json:"worker"`
}

// leaseResponse answers a lease request: exactly one of Done, Wait or
// Lease is set.
type leaseResponse struct {
	// Done: the run is complete (or completing); the worker should exit.
	Done bool `json:"done,omitempty"`
	// Wait: the request was held for its whole bound and every chunk is
	// still leased out. Ask again at once; the next request is held too.
	Wait  bool     `json:"wait,omitempty"`
	Lease *Lease   `json:"lease,omitempty"`
	Job   *JobSpec `json:"job,omitempty"`
}

// resultRequest is the body of POST /fleet/v1/result.
type resultRequest struct {
	Worker  string `json:"worker"`
	LeaseID uint64 `json:"lease_id"`
	// BusyMS is the worker-side sweep busy time (sweep.Stats.Busy) of
	// this chunk, feeding the coordinator's per-worker gauges.
	BusyMS int64 `json:"busy_ms"`
	// Run is the chunk's partial run in the store's canonical byte
	// encoding (results.Encode), Meta.Range set to the leased range.
	Run json.RawMessage `json:"run"`
}

// resultResponse answers a result post.
type resultResponse struct {
	// OK: the chunk was accepted and merged.
	OK bool `json:"ok,omitempty"`
	// Done: the whole run is complete; the worker should exit.
	Done bool `json:"done,omitempty"`
	// Discarded: the lease had expired and the chunk was already
	// re-run (or is re-leased) — the bytes were politely dropped. Not
	// an error: determinism makes the duplicate identical anyway.
	Discarded bool `json:"discarded,omitempty"`
}

// WorkerStatus is one worker's row in the status report.
type WorkerStatus struct {
	Name   string        `json:"name"`
	Cells  uint64        `json:"cells"`
	Chunks uint64        `json:"chunks"`
	Busy   time.Duration `json:"busy_ns"`
}

// Status is the coordinator's GET /fleet/v1/status report.
type Status struct {
	Experiment string `json:"experiment"`
	// Total is the chunk coordinate space (generalized shard total).
	Total int `json:"total"`
	// Covered counts coordinates already merged into segments.
	Covered int `json:"covered"`
	// Queued/Leased count chunks waiting and outstanding.
	Queued int `json:"queued"`
	Leased int `json:"leased"`
	// Segments lists the disjoint merged ranges, e.g. ["[0,7)/24"].
	Segments []string       `json:"segments"`
	Workers  []WorkerStatus `json:"workers"`
	Done     bool           `json:"done"`
}
