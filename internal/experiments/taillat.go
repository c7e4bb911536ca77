package experiments

import (
	"lockin/internal/metrics"
	"lockin/internal/sim"
	"lockin/internal/sweep"
	"lockin/internal/workload"
)

// fig10_tail is the tail-latency companion of Figure 10: the
// timeout × threads percentile grid that examples/tailtune sweeps by
// hand, registered as a first-class experiment so it runs through the
// sweep engine (parallel cells, sharding, results store) like every
// other table. Each cell is one (threads, timeout) configuration of a
// contended MUTEXEE with latency recording on; the row reports the
// throughput/TPP cost and the p95/p99.99/max acquire latencies, making
// the knee of the bounded-unfairness trade-off machine-readable.
func init() {
	register(Experiment{
		ID:    "fig10_tail",
		Title: "MUTEXEE timeout × threads: tail-latency percentiles and throughput cost",
		Paper: "shorter timeouts bound the tail (max latency ≈ the timeout) but surrender the unfairness that makes MUTEXEE fast; timeouts ≥16-32 ms approach timeout-free throughput (§5.1 / Figure 10)",
		Grid: func(o Options) []*metrics.Table {
			t := metrics.NewTable("Figure 10 (tail) — bounding MUTEXEE's unfairness (2000-cycle CS)",
				"threads", "timeout(cycles)", "thr(Kacq/s)", "TPP(Kacq/J)",
				"p95(Kcyc)", "p99.99(Kcyc)", "max(Mcyc)")
			threads := []int{10, 20, 40}
			// 0 = timeout-free; the rest span 8 µs to 8 ms at 2.8 GHz.
			timeouts := []sim.Cycles{0, 22_400, 224_000, 2_800_000, 22_400_000}
			if o.Quick {
				threads = []int{20}
				timeouts = []sim.Cycles{0, 22_400, 22_400_000}
			}
			g := sweep.NewGrid(o)
			for _, n := range threads {
				for _, to := range timeouts {
					n, to := n, to
					g.Add(func(c sweep.Cell) []sweep.Row {
						cfg := microCfg(o, c.Seed, mutexeeTimeoutFactory(to), n, 2000, 1)
						cfg.Outside = 500 // tight loop: the tail comes from starved sleepers
						cfg.RecordLatency = true
						cfg.Duration = o.Window(20_000_000)
						r := workload.RunMicro(cfg)
						return []sweep.Row{{n, uint64(to),
							r.Throughput() / 1e3, r.TPP() / 1e3,
							float64(r.Latency.Percentile(0.95)) / 1e3,
							float64(r.Latency.Percentile(0.9999)) / 1e3,
							float64(r.Latency.Max()) / 1e6}}
					})
				}
			}
			g.Into(t)
			t.AddNote("timeouts in cycles at 2.8 GHz: 22.4K ≈ 8 µs, 2.8M ≈ 1 ms, 22.4M ≈ 8 ms; 0 = no timeout")
			return []*metrics.Table{t}
		},
	})
}
