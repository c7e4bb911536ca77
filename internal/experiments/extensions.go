package experiments

import (
	"lockin/internal/core"
	"lockin/internal/metrics"
	"lockin/internal/sweep"
	"lockin/internal/workload"
)

func init() {
	register(Experiment{
		ID:    "ext_future",
		Title: "Extension — §8 future hardware: user-level mwait, hierarchical and backoff locks",
		Paper: "§8 (qualitative): user-level monitor/mwait could cut busy-wait power without the kernel toll; hierarchical/backoff designs reduce coherence traffic",
		Grid:  runFutureExtensions,
	})

	register(Experiment{
		ID:    "ext_fairness",
		Title: "Extension — Jain fairness index across lock algorithms",
		Paper: "§5 (qualitative): fair locks serve threads evenly; MUTEXEE trades fairness for throughput and power",
		Grid:  runFairnessExtension,
	})
}

// runFutureExtensions compares the paper's six locks against the
// extension designs on the contended single-lock workload.
func runFutureExtensions(o Options) []*metrics.Table {
	t := metrics.NewTable("Extension — future-hardware and classic alternatives (20 threads, 2000-cycle CS)",
		"lock", "throughput(Kacq/s)", "TPP(Kacq/J)", "power(W)")
	variants := []struct {
		name string
		k    core.Kind
	}{
		{"MUTEX", core.KindMutex},
		{"TTAS", core.KindTTAS},
		{"TICKET", core.KindTicket},
		{"MUTEXEE", core.KindMutexee},
		{"TAS-BO", core.KindBackoffTAS},
		{"HTICKET", core.KindHTicket},
		{"MWAIT (kernel)", core.KindMwaitK},
		{"MWAIT (user, §8)", core.KindMwait},
	}
	g := sweep.NewGrid(o)
	for _, v := range variants {
		g.Add(func(c sweep.Cell) []sweep.Row {
			cfg := microCfg(o, c.Seed, workload.FactoryFor(v.k), 20, 2000, 1)
			cfg.Duration = o.Window(12_000_000)
			r := workload.RunMicro(cfg)
			return []sweep.Row{{v.name, r.Throughput() / 1e3, r.TPP() / 1e3, r.Power().Total}}
		})
	}
	g.Into(t)
	t.AddNote("MWAIT (user) models SPARC M7-style user-level monitor/mwait — the paper's §8 ask")
	return []*metrics.Table{t}
}

// runFairnessExtension reports Jain's index per algorithm on a tight
// contended loop — the quantitative face of the paper's fairness
// trade-off discussion. The index is over the workers that acquired
// the lock at least once, counting the warm-up and the cool-down.
func runFairnessExtension(o Options) []*metrics.Table {
	t := metrics.NewTable("Extension — Jain fairness index (16 threads, 1500-cycle CS, tight loop)",
		"lock", "jain", "throughput(Kacq/s)")
	g := sweep.NewGrid(o)
	for _, k := range evalKinds {
		g.Add(func(c sweep.Cell) []sweep.Row {
			cfg := microCfg(o, c.Seed, workload.FactoryFor(k), 16, 1500, 1)
			cfg.Outside = 300
			cfg.Duration = o.Window(8_000_000)
			r := workload.RunMicro(cfg)
			var served []float64
			for _, n := range r.Acquires {
				if n > 0 {
					served = append(served, float64(n))
				}
			}
			return []sweep.Row{{k.String(), metrics.Jain(served), r.Throughput() / 1e3}}
		})
	}
	g.Into(t)
	t.AddNote("1.0 = perfectly even service; MUTEXEE's unfairness is its efficiency lever")
	return []*metrics.Table{t}
}
