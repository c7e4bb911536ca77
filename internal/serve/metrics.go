package serve

import (
	"net/http"
	"time"

	"lockin/internal/futex"
	"lockin/internal/sim"
	"lockin/internal/sweep"
	"lockin/internal/telemetry"
)

// serveRoutes are the instrumented HTTP routes, one latency histogram
// series each. The list is fixed at construction so the scrape output
// has a stable shape from the first request.
var serveRoutes = []string{
	"GET /healthz",
	"GET /v1/experiments",
	"POST /v1/runs",
	"GET /v1/runs",
	"GET /v1/runs/{key}",
	"GET /v1/runs/{key}/slice",
	"GET /v1/runs/{key}/project",
	"GET /v1/runs/{key}/events",
	"GET /v1/diff",
}

// serverMetrics is one Server's /metrics surface. Each Server owns its
// own registry (tests start many servers per process; a global registry
// would panic on re-registration), while the process-wide simulator
// counters (internal/sim, internal/futex, internal/sweep) surface
// through scrape-time func metrics — those packages stay free of any
// telemetry import, and their hot paths free of shared atomics.
type serverMetrics struct {
	reg *telemetry.Registry

	runsServed      *telemetry.Counter
	cacheHits       *telemetry.Counter
	cacheMisses     *telemetry.Counter
	rejected        *telemetry.Counter
	failed          *telemetry.Counter
	evictions       *telemetry.Counter
	rateLimited     *telemetry.Counter
	unauthorized    *telemetry.Counter
	oversized       *telemetry.Counter
	journalReplayed *telemetry.Counter
	sseSubs         *telemetry.Gauge

	latency map[string]*telemetry.Histogram
}

func newServerMetrics(s *Server) *serverMetrics {
	reg := telemetry.NewRegistry()
	m := &serverMetrics{reg: reg, latency: make(map[string]*telemetry.Histogram, len(serveRoutes))}

	m.runsServed = reg.Counter("runs_served_total",
		"completed runs served to clients (stored bytes, slices and projections)")
	m.cacheHits = reg.Counter("cache_hits_total",
		"submissions answered without a fresh simulation: already cached, or attached to an identical in-flight job")
	m.cacheMisses = reg.Counter("cache_misses_total",
		"submissions that enqueued a fresh simulation")
	m.rejected = reg.Counter("submissions_rejected_total",
		"submissions answered 503 by a full queue or a closing server")
	m.failed = reg.Counter("runs_failed_total",
		"submitted runs that failed or panicked")
	m.evictions = reg.Counter("cache_evictions_total",
		"run files removed by the LRU pass enforcing -cache-max-bytes/-cache-max-runs")
	m.rateLimited = reg.Counter("requests_rate_limited_total",
		"POSTs answered 429 by an exhausted per-client token bucket")
	m.unauthorized = reg.Counter("requests_unauthorized_total",
		"POSTs answered 401 for a missing or wrong bearer token (-auth-token)")
	m.oversized = reg.Counter("submissions_oversized_total",
		"POST bodies answered 413 for exceeding the spec size limit")
	m.journalReplayed = reg.Counter("journal_replayed_total",
		"journaled submissions re-queued at startup after an unclean shutdown")
	m.sseSubs = reg.Gauge("sse_subscribers",
		"open /v1/runs/{key}/events progress streams")

	reg.CounterFunc("runs_simulated_total",
		"sweeps this server actually simulated; the cache-key dedupe keeps this at one per distinct run",
		func() float64 { return float64(s.simulated.Load()) })
	reg.GaugeFunc("cache_hit_ratio",
		"cache_hits_total over all submissions, 0 before the first one",
		func() float64 {
			h, miss := float64(m.cacheHits.Value()), float64(m.cacheMisses.Value())
			if h+miss == 0 {
				return 0
			}
			return h / (h + miss)
		})
	reg.GaugeFunc("queue_depth",
		"submissions waiting in the bounded queue",
		func() float64 { return float64(len(s.queue)) })
	reg.GaugeFunc("queue_capacity",
		"submission queue bound (Config.QueueDepth); at depth == capacity new work answers 503",
		func() float64 { return float64(cap(s.queue)) })
	reg.GaugeFunc("cache_bytes",
		"total bytes of stored runs, as of the last eviction pass",
		func() float64 { return float64(s.cacheBytes.Load()) })
	reg.GaugeFunc("cache_runs",
		"stored run files, as of the last eviction pass",
		func() float64 { return float64(s.cacheRuns.Load()) })
	reg.GaugeFunc("journal_pending",
		"accepted submissions journaled but not yet landed",
		func() float64 { return float64(s.journal.count()) })
	reg.GaugeFunc("active_jobs",
		"submissions queued or running right now",
		func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			n := 0
			for _, j := range s.jobs {
				if j.active() {
					n++
				}
			}
			return float64(n)
		})

	reg.CounterFunc("sweep_cells_total",
		"grid cells simulated process-wide (every front-end shares the engine)",
		func() float64 { return float64(sweep.TotalCells()) })
	reg.CounterFunc("sweep_busy_seconds_total",
		"wall-clock seconds sweep workers spent inside cell functions, summed across workers",
		sweep.TotalBusySeconds)
	reg.CounterFunc("sim_event_pool_recycles_total",
		"event slots returned to kernel free lists — allocations the pooled event queue avoided",
		func() float64 { return float64(sim.GlobalStats().EventRecycles) })
	reg.CounterFunc("sim_coroutine_resumes_total",
		"simulated-thread coroutine resumes: handoffs to a thread not on the driver stack, starts included",
		func() float64 { return float64(sim.GlobalStats().Resumes) })
	reg.CounterFunc("sim_heap_compactions_total",
		"lazy-cancel compaction passes over kernel event queues (calendar and heap)",
		func() float64 { return float64(sim.GlobalStats().HeapCompactions) })
	reg.GaugeFunc("sim_heap_high_water",
		"most pending events any kernel held at once (calendar and heap)",
		func() float64 { return float64(sim.GlobalStats().HeapHighWater) })
	reg.CounterFunc("futex_timeouts_total",
		"FUTEX_WAIT timeouts that expired (MUTEXEE spin-then-park giving up)",
		func() float64 { return float64(futex.GlobalTimeouts()) })
	reg.CounterFunc("futex_timeout_wake_races_total",
		"FUTEX_WAKEs that beat a still-armed timeout timer to the waiter",
		func() float64 { return float64(futex.GlobalTimeoutWakeRaces()) })

	for _, route := range serveRoutes {
		m.latency[route] = reg.Histogram("http_request_duration_seconds",
			"request latency by route", telemetry.Label("route", route), nil)
	}
	return m
}

// instrument wraps a route handler with its latency histogram, a
// monotonic request id and one structured log line per request.
func (s *Server) instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	hist := s.metrics.latency[route]
	return func(w http.ResponseWriter, r *http.Request) {
		id := s.reqID.Add(1)
		start := time.Now()
		h(w, r)
		d := time.Since(start)
		hist.Observe(d)
		s.log.Info("request", "req", id, "method", r.Method,
			"url", r.URL.RequestURI(), "dur", d.Round(time.Microsecond))
	}
}
