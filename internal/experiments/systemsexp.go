package experiments

import (
	"lockin/internal/core"
	"lockin/internal/machine"
	"lockin/internal/metrics"
	"lockin/internal/sim"
	"lockin/internal/sweep"
	"lockin/internal/systems"
	"lockin/internal/workload"
)

// systemKinds are the three locks shown in Figures 13-15.
var systemKinds = []core.Kind{core.KindMutex, core.KindTicket, core.KindMutexee}

// sysResult caches one (definition, lock) run.
type sysResult struct {
	def  systems.Definition
	kind core.Kind
	res  systems.Result
}

// runSystems executes every Table 3 definition under the three locks,
// one sweep cell per (definition, lock) pair.
func runSystems(o Options, defs []systems.Definition) []sysResult {
	var jobs []systems.Job
	var cells []sysResult
	for _, d := range defs {
		// Oversubscribed systems need several timeslice rotations for the
		// spinlock livelock to express itself.
		dur := sim.Cycles(10_000_000)
		if d.Threads > 32 {
			dur = 60_000_000
		}
		for _, k := range systemKinds {
			jobs = append(jobs, systems.Job{
				Def:      d,
				Factory:  workload.FactoryFor(k),
				Warmup:   o.dur(300_000),
				Duration: o.dur(dur),
			})
			cells = append(cells, sysResult{def: d, kind: k})
		}
	}
	for i, res := range systems.RunJobs(o.SweepOptions(), jobs) {
		cells[i].res = res
	}
	return cells
}

func defsFor(o Options) []systems.Definition {
	if o.Quick {
		return []systems.Definition{
			systems.HamsterDB()[0],
			systems.Memcached()[1],
			systems.SQLite()[2],
		}
	}
	return systems.All()
}

// normTable renders results normalized to MUTEX per configuration.
func normTable(title string, results []sysResult, metric func(systems.Result) float64) *metrics.Table {
	t := metrics.NewTable(title, "system", "config", "lock", "value", "vs MUTEX")
	base := map[string]float64{}
	for _, r := range results {
		if r.kind == core.KindMutex {
			base[r.def.ID()] = metric(r.res)
		}
	}
	var sums = map[core.Kind]float64{}
	var counts = map[core.Kind]int{}
	for _, r := range results {
		b := base[r.def.ID()]
		v := metric(r.res)
		n := 0.0
		if b != 0 {
			n = v / b
		}
		sums[r.kind] += n
		counts[r.kind]++
		t.AddRow(r.def.System, r.def.Config, r.kind.String(), v, n)
	}
	for _, k := range systemKinds {
		if counts[k] > 0 {
			t.AddNote("%s average vs MUTEX: %.2f", k, sums[k]/float64(counts[k]))
		}
	}
	return t
}

func init() {
	register(Experiment{
		ID:        "fig13",
		Aggregate: true,
		Title:     "Normalized throughput of the six systems with different locks",
		Paper:     "avg: TICKET 1.06x, MUTEXEE 1.26x over MUTEX; TICKET collapses on MySQL (0.01-0.16x) and SQLite 64 CON (0.25x)",
		Run: func(o Options) []*metrics.Table {
			rs := runSystems(o, defsFor(o))
			return []*metrics.Table{normTable("Figure 13 — normalized throughput (higher is better)",
				rs, func(r systems.Result) float64 { return r.Throughput() })}
		},
	})

	register(Experiment{
		ID:        "fig14",
		Aggregate: true,
		Title:     "Normalized energy efficiency (TPP) of the six systems",
		Paper:     "avg: TICKET 1.05x, MUTEXEE 1.28x over MUTEX; improvements driven by throughput",
		Run: func(o Options) []*metrics.Table {
			rs := runSystems(o, defsFor(o))
			return []*metrics.Table{normTable("Figure 14 — normalized TPP (higher is better)",
				rs, func(r systems.Result) float64 { return r.TPP() })}
		},
	})

	register(Experiment{
		ID:        "fig15",
		Aggregate: true,
		Title:     "Normalized 99th-percentile latency of four systems",
		Paper:     "mostly better throughput → lower tail; HamsterDB RD: MUTEXEE ≈19x tail of MUTEX; TICKET terrible when oversubscribed",
		Run: func(o Options) []*metrics.Table {
			defs := fig15Defs(o)
			rs := runSystems(o, defs)
			return []*metrics.Table{normTable("Figure 15 — normalized p99 latency (lower is better)",
				rs, func(r systems.Result) float64 { return float64(r.Latency.Percentile(0.99)) })}
		},
	})

	register(Experiment{
		ID:    "ablation",
		Title: "MUTEXEE design ablations (single lock, 20 threads)",
		Paper: "§5.1 sensitivity: ≥4000-cycle spin crucial for throughput; unlock user-space wait crucial for power; mbar vs pause worth ≈4 W on TICKET",
		Run:   runAblation,
	})
}

func fig15Defs(o Options) []systems.Definition {
	if o.Quick {
		return []systems.Definition{systems.HamsterDB()[2], systems.SQLite()[2]}
	}
	var out []systems.Definition
	out = append(out, systems.HamsterDB()...)
	out = append(out, systems.Memcached()...)
	out = append(out, systems.MySQL()...)
	out = append(out, systems.SQLite()...)
	return out
}

// runAblation quantifies the MUTEXEE design choices, one sweep cell per
// variant.
func runAblation(o Options) []*metrics.Table {
	t := metrics.NewTable("MUTEXEE and spin-policy ablations (20 threads, 2000-cycle CS)",
		"variant", "throughput(Kacq/s)", "TPP(Kacq/J)", "power(W)")
	variants := []struct {
		name string
		f    workload.LockFactory
	}{
		{"MUTEXEE (default)", workload.FactoryFor(core.KindMutexee)},
		{"MUTEXEE spin=500", mutexeeVariant(func(o *core.MutexeeOptions) { o.SpinLock = 500 })},
		{"MUTEXEE no unlock-wait", mutexeeVariant(func(o *core.MutexeeOptions) { o.UnlockWait = false })},
		{"MUTEXEE no adaptation", mutexeeVariant(func(o *core.MutexeeOptions) { o.Adaptive = false })},
		{"MUTEX (reference)", workload.FactoryFor(core.KindMutex)},
		{"TICKET mbar", workload.FactoryFor(core.KindTicket)},
		{"TICKET pause", func(m *machine.Machine) core.Lock { return core.NewTicket(m, machine.WaitPause) }},
	}
	g := o.grid()
	for _, v := range variants {
		v := v
		g.Add(func(c sweep.Cell) []sweep.Row {
			cfg := workload.DefaultMicroConfig(c.Seed)
			cfg.Factory = v.f
			cfg.Threads = 20
			cfg.CS = 2000
			cfg.Outside = 500
			cfg.Warmup = o.dur(300_000)
			cfg.Duration = o.dur(15_000_000)
			r := workload.RunMicro(cfg)
			return []sweep.Row{{v.name, r.Throughput() / 1e3, r.TPP() / 1e3, r.Power().Total}}
		})
	}
	g.Into(t)
	return []*metrics.Table{t}
}

func mutexeeVariant(mod func(*core.MutexeeOptions)) workload.LockFactory {
	return func(m *machine.Machine) core.Lock {
		opts := core.DefaultMutexeeOptions()
		mod(&opts)
		return core.NewMutexee(m, opts)
	}
}
