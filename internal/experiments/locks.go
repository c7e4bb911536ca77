package experiments

import (
	"lockin/internal/core"
	"lockin/internal/machine"
	"lockin/internal/metrics"
	"lockin/internal/sim"
	"lockin/internal/sweep"
	"lockin/internal/workload"
)

// microCfg builds a microbenchmark configuration for one grid cell,
// whose machine is seeded with the cell's derived seed.
func microCfg(o Options, seed int64, f workload.LockFactory, threads int, cs sim.Cycles, locks int) workload.MicroConfig {
	cfg := workload.DefaultMicroConfig(seed)
	cfg.Factory = f
	cfg.Threads = threads
	cfg.Locks = locks
	cfg.CS = cs
	// The outside-work span keeps the releasing thread away long enough
	// that every acquisition is a genuine handover to a waiting thread
	// (otherwise the unlocker trivially re-acquires and the benchmark
	// measures lock-stealing monopoly instead of handover cost).
	cfg.Outside = 6*cs + 1000
	cfg.Warmup = o.Window(300_000)
	cfg.Duration = o.Window(10_000_000)
	return cfg
}

// mutexeeTimeoutFactory builds MUTEXEE with the given futex timeout;
// 0 is the timeout-free default. Shared by every timeout experiment
// (fig10, fig10_tail, tbl_timeout) so they all measure the same lock
// configuration.
func mutexeeTimeoutFactory(to sim.Cycles) workload.LockFactory {
	if to <= 0 {
		return workload.FactoryFor(core.KindMutexee)
	}
	return func(m *machine.Machine) core.Lock {
		opts := core.DefaultMutexeeOptions()
		opts.Timeout = to
		return core.NewMutexee(m, opts)
	}
}

// evalKinds are the six algorithms of Figure 11 / Table 2.
var evalKinds = []core.Kind{
	core.KindMutex, core.KindTAS, core.KindTTAS,
	core.KindTicket, core.KindMCS, core.KindMutexee,
}

func init() {
	register(Experiment{
		ID:    "tbl2",
		Title: "Single-threaded lock throughput and TPP (uncontested)",
		Paper: "locks perform inversely to complexity: TAS/TTAS/TICKET ≈17 Macq/s; MUTEX 11.9; MCS 12.0; MUTEXEE 13.3",
		Grid: func(o Options) []*metrics.Table {
			t := metrics.NewTable("Table 2 — uncontested locking",
				"lock", "throughput(Macq/s)", "TPP(Kacq/J)")
			g := sweep.NewGrid(o)
			for _, k := range evalKinds {
				k := k
				g.Add(func(c sweep.Cell) []sweep.Row {
					cfg := microCfg(o, c.Seed, workload.FactoryFor(k), 1, 100, 1)
					cfg.Outside = 0
					r := workload.RunMicro(cfg)
					return []sweep.Row{{k.String(), r.Throughput() / 1e6, r.TPP() / 1e3}}
				})
			}
			g.Into(t)
			return []*metrics.Table{t}
		},
	})

	register(Experiment{
		ID:    "fig11",
		Title: "Single (global) lock: throughput and TPP vs thread count",
		Paper: "MCS best ≤40 threads; TAS worst; MUTEX −63% throughput vs TICKET at 40; fair locks (TICKET/MCS) collapse past 40 threads; MUTEXEE flat and best overall",
		Grid: func(o Options) []*metrics.Table {
			t := metrics.NewTable("Figure 11 — single global lock (1000-cycle critical sections)",
				"threads", "lock", "throughput(Macq/s)", "TPP(Kacq/J)", "power(W)")
			threads := []int{1, 10, 20, 30, 40, 50, 60}
			if o.Quick {
				threads = []int{1, 20, 40, 50}
			}
			g := sweep.NewGrid(o)
			for _, n := range threads {
				for _, k := range evalKinds {
					n, k := n, k
					g.AddHinted(float64(n), func(c sweep.Cell) []sweep.Row {
						r := workload.RunMicro(microCfg(o, c.Seed, workload.FactoryFor(k), n, 1000, 1))
						return []sweep.Row{{n, k.String(), r.Throughput() / 1e6, r.TPP() / 1e3, r.Power().Total}}
					})
				}
			}
			g.Into(t)
			return []*metrics.Table{t}
		},
	})

	register(Experiment{
		ID:    "fig8",
		Title: "MUTEXEE/MUTEX throughput and TPP ratios (threads × critical-section size)",
		Paper: "MUTEXEE up to ≈3x throughput and ≈6x TPP for critical sections ≤4000 cycles; converges to ≈1 for large critical sections",
		Grid: func(o Options) []*metrics.Table {
			t := metrics.NewTable("Figure 8 — MUTEXEE over MUTEX, single lock",
				"threads", "cs(cycles)", "thr ratio", "TPP ratio")
			threads := []int{10, 20, 40, 60}
			css := []sim.Cycles{0, 1000, 2000, 4000, 8000, 16000}
			if o.Quick {
				threads = []int{20, 60}
				css = []sim.Cycles{1000, 8000}
			}
			g := sweep.NewGrid(o)
			for _, n := range threads {
				for _, cs := range css {
					n, cs := n, cs
					g.AddHinted(float64(n), func(c sweep.Cell) []sweep.Row {
						mu := workload.RunMicro(microCfg(o, c.Seed, workload.FactoryFor(core.KindMutex), n, cs, 1))
						me := workload.RunMicro(microCfg(o, c.Seed, workload.FactoryFor(core.KindMutexee), n, cs, 1))
						return []sweep.Row{{n, uint64(cs), ratio(me.Throughput(), mu.Throughput()), ratio(me.TPP(), mu.TPP())}}
					})
				}
			}
			g.Into(t)
			return []*metrics.Table{t}
		},
	})

	register(Experiment{
		ID:    "fig9",
		Title: "Tail latency of a single MUTEX vs MUTEXEE vs critical-section size",
		Paper: "MUTEXEE has lower p95 below 4000-cycle critical sections but far higher p99.99 (long sleepers); the locks converge for large critical sections",
		Grid: func(o Options) []*metrics.Table {
			t := metrics.NewTable("Figure 9 — acquire-latency percentiles (20 threads)",
				"cs(cycles)", "lock", "p95(Kcycles)", "p99.99(Kcycles)", "max(Kcycles)")
			css := []sim.Cycles{1000, 2000, 4000, 8000, 16000}
			if o.Quick {
				css = []sim.Cycles{2000, 8000}
			}
			g := sweep.NewGrid(o)
			for _, cs := range css {
				for _, k := range []core.Kind{core.KindMutex, core.KindMutexee} {
					cs, k := cs, k
					g.Add(func(c sweep.Cell) []sweep.Row {
						cfg := microCfg(o, c.Seed, workload.FactoryFor(k), 20, cs, 1)
						cfg.Outside = cs / 4 // tight loop: unfairness shows in the tail
						cfg.RecordLatency = true
						cfg.Duration = o.Window(20_000_000)
						r := workload.RunMicro(cfg)
						return []sweep.Row{{uint64(cs), k.String(),
							float64(r.Latency.Percentile(0.95)) / 1e3,
							float64(r.Latency.Percentile(0.9999)) / 1e3,
							float64(r.Latency.Max()) / 1e3}}
					})
				}
			}
			g.Into(t)
			return []*metrics.Table{t}
		},
	})

	register(Experiment{
		ID:    "fig10",
		Title: "MUTEXEE without timeouts over with timeouts (throughput, TPP)",
		Paper: "8 µs timeouts cost up to 14x throughput / 24x TPP; timeouts ≥16-32 ms approach timeout-free performance",
		Grid: func(o Options) []*metrics.Table {
			t := metrics.NewTable("Figure 10 — price of bounding MUTEXEE's unfairness (2000-cycle CS)",
				"threads", "timeout(cycles)", "thr ratio (no-TO/TO)", "TPP ratio")
			threads := []int{20, 40}
			timeouts := []sim.Cycles{22_400, 224_000, 2_240_000, 22_400_000, 89_600_000}
			if o.Quick {
				threads = []int{20}
				timeouts = []sim.Cycles{22_400, 22_400_000}
			}
			// One cell per (threads, timeout) pair. Each cell runs its own
			// timeout-free baseline on the same cell seed (the fig8
			// pattern), so every table row depends on exactly one cell and
			// the grid shards cleanly: the union of shard runs is
			// byte-identical to an unsharded run.
			g := sweep.NewGrid(o)
			for _, n := range threads {
				for _, to := range timeouts {
					n, to := n, to
					g.AddHinted(float64(n), func(c sweep.Cell) []sweep.Row {
						run := func(timeout sim.Cycles) workload.Result {
							cfg := microCfg(o, c.Seed, mutexeeTimeoutFactory(timeout), n, 2000, 1)
							cfg.Outside = 500 // tight loop: sleepers starve without timeouts
							return workload.RunMicro(cfg)
						}
						base, r := run(0), run(to)
						return []sweep.Row{{n, uint64(to),
							ratio(base.Throughput(), r.Throughput()), ratio(base.TPP(), r.TPP())}}
					})
				}
			}
			g.Into(t)
			t.AddNote("timeouts in cycles at 2.8 GHz: 22.4K ≈ 8 µs, 22.4M ≈ 8 ms, 89.6M ≈ 32 ms")
			return []*metrics.Table{t}
		},
	})

	register(Experiment{
		ID:    "tbl_timeout",
		Title: "§5.1 — MUTEX vs MUTEXEE vs MUTEXEE+timeout at 20 threads",
		Paper: "MUTEX 317 Kacq/s / 4.0 Kacq/J / 2.0 Mcycles max; MUTEXEE 855 / 10.9 / 206.5; MUTEXEE-timeout 474 / 6.5 / 12.0",
		Grid: func(o Options) []*metrics.Table {
			t := metrics.NewTable("§5.1 — fairness/performance trade-off (20 threads, 2000-cycle CS)",
				"lock", "throughput(Kacq/s)", "TPP(Kacq/J)", "max latency(Mcycles)")
			variants := []struct {
				name string
				f    workload.LockFactory
			}{
				{"MUTEX", workload.FactoryFor(core.KindMutex)},
				{"MUTEXEE", workload.FactoryFor(core.KindMutexee)},
				// ≈1 ms timeout (scaled to the shortened window).
				{"MUTEXEE timeout", mutexeeTimeoutFactory(2_800_000)},
			}
			g := sweep.NewGrid(o)
			for _, v := range variants {
				v := v
				g.Add(func(c sweep.Cell) []sweep.Row {
					cfg := microCfg(o, c.Seed, v.f, 20, 2000, 1)
					cfg.Outside = 500 // tight loop, as in the paper's single-lock stress
					cfg.RecordLatency = true
					cfg.Duration = o.Window(30_000_000)
					r := workload.RunMicro(cfg)
					return []sweep.Row{{v.name, r.Throughput() / 1e3, r.TPP() / 1e3, float64(r.Latency.Max()) / 1e6}}
				})
			}
			g.Into(t)
			return []*metrics.Table{t}
		},
	})

	register(Experiment{
		ID:     "fig12",
		Title:  "Correlation of throughput with TPP across contention levels",
		Paper:  "≈85% of 2084 configurations: the best-throughput lock is also the best-TPP lock; near-linear correlation overall",
		Grid:   runFig12,
		Reduce: reduceFig12,
	})
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// runFig12 sweeps threads × critical-section × lock-count configurations
// for all six algorithms, one grid cell per configuration: it runs all
// six locks on machines derived from the cell seed and emits one row
// per lock, so the best-lock vote is decided within a single cell.
func runFig12(o Options) []*metrics.Table {
	threads := []int{1, 4, 8, 16}
	css := []sim.Cycles{0, 1000, 4000, 8000}
	lockCounts := []int{1, 16, 128, 512}
	if o.Quick {
		threads = []int{1, 16}
		css = []sim.Cycles{1000, 8000}
		lockCounts = []int{1, 128}
	}
	t := metrics.NewTable("Figure 12 — POLY configurations, one row per lock",
		"threads", "cs(cycles)", "locks", "lock", "throughput(acq/s)", "TPP(acq/J)")
	g := sweep.NewGrid(o)
	for _, n := range threads {
		for _, cs := range css {
			for _, lc := range lockCounts {
				g.Add(func(c sweep.Cell) []sweep.Row {
					rows := make([]sweep.Row, len(evalKinds))
					for i, k := range evalKinds {
						mc := microCfg(o, c.Seed, workload.FactoryFor(k), n, cs, lc)
						mc.Duration = o.Window(5_000_000)
						r := workload.RunMicro(mc)
						rows[i] = sweep.Row{n, uint64(cs), lc, k.String(), r.Throughput(), r.TPP()}
					}
					return rows
				})
			}
		}
	}
	g.Into(t)
	return []*metrics.Table{t}
}

// reduceFig12 folds runFig12's rows, len(evalKinds) per configuration,
// into the throughput↔TPP correlation and best-lock agreement summary.
func reduceFig12(tabs []*metrics.Table) []*metrics.Table {
	var thrs, tpps []float64
	agree, total := 0, 0
	var mutexeeThr, mutexThr, mutexeeTPP, mutexTPP float64
	rows := tabs[0].Cells()
	for c := 0; c < len(rows); c += len(evalKinds) {
		bestThr, bestTPP := -1, -1
		var bestThrV, bestTPPV float64
		for i, row := range rows[c : c+len(evalKinds)] {
			thr, tpp := row[4].Float, row[5].Float
			thrs = append(thrs, thr)
			tpps = append(tpps, tpp)
			if thr > bestThrV {
				bestThrV, bestThr = thr, i
			}
			if tpp > bestTPPV {
				bestTPPV, bestTPP = tpp, i
			}
			switch row[3].Text() {
			case core.KindMutex.String():
				mutexThr += thr
				mutexTPP += tpp
			case core.KindMutexee.String():
				mutexeeThr += thr
				mutexeeTPP += tpp
			}
		}
		total++
		if bestThr == bestTPP {
			agree++
		}
	}
	t := metrics.NewTable("Figure 12 — POLY correlation summary",
		"metric", "value")
	t.AddRow("configurations", total)
	t.AddRow("pearson r (thr vs TPP)", metrics.Pearson(metrics.Normalize(thrs), metrics.Normalize(tpps)))
	t.AddRow("best-thr == best-TPP (%)", 100*float64(agree)/float64(total))
	t.AddRow("MUTEXEE/MUTEX avg thr ratio", ratio(mutexeeThr, mutexThr))
	t.AddRow("MUTEXEE/MUTEX avg TPP ratio", ratio(mutexeeTPP, mutexTPP))
	t.AddNote("paper: 85%% agreement over 2084 configurations; MUTEXEE +25%% thr, +32%% TPP vs MUTEX")
	return []*metrics.Table{t}
}
