package experiments

import (
	"lockin/internal/core"
	"lockin/internal/machine"
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
		f    workload.LockFactory
	}{
		{"MUTEX", workload.FactoryFor(core.KindMutex)},
		{"TTAS", workload.FactoryFor(core.KindTTAS)},
		{"TICKET", workload.FactoryFor(core.KindTicket)},
		{"MUTEXEE", workload.FactoryFor(core.KindMutexee)},
		{"TAS-BO", func(m *machine.Machine) core.Lock { return core.NewBackoffTAS(m, 0, 0) }},
		{"HTICKET", func(m *machine.Machine) core.Lock { return core.NewHTicket(m, machine.WaitMbar) }},
		{"MWAIT (kernel)", func(m *machine.Machine) core.Lock { return core.NewMwaitLock(m, machine.WaitMwait) }},
		{"MWAIT (user, §8)", func(m *machine.Machine) core.Lock { return core.NewMwaitLock(m, machine.WaitMwaitUser) }},
	}
	g := sweep.NewGrid(o)
	for _, v := range variants {
		v := v
		g.Add(func(c sweep.Cell) []sweep.Row {
			cfg := microCfg(o, c.Seed, v.f, 20, 2000, 1)
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
// trade-off discussion.
func runFairnessExtension(o Options) []*metrics.Table {
	t := metrics.NewTable("Extension — Jain fairness index (16 threads, 1500-cycle CS, tight loop)",
		"lock", "jain", "throughput(Kacq/s)")
	g := sweep.NewGrid(o)
	for _, k := range evalKinds {
		k := k
		g.Add(func(c sweep.Cell) []sweep.Row {
			var tracked *core.Tracked
			f := func(m *machine.Machine) core.Lock {
				tracked = core.NewTracked(core.New(m, k))
				return tracked
			}
			cfg := microCfg(o, c.Seed, f, 16, 1500, 1)
			cfg.Outside = 300
			cfg.Duration = o.Window(8_000_000)
			r := workload.RunMicro(cfg)
			return []sweep.Row{{k.String(), tracked.Tracker.Jain(), r.Throughput() / 1e3}}
		})
	}
	g.Into(t)
	t.AddNote("1.0 = perfectly even service; MUTEXEE's unfairness is its efficiency lever")
	return []*metrics.Table{t}
}
