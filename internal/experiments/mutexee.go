package experiments

import (
	"lockin/internal/core"
	"lockin/internal/machine"
	"lockin/internal/metrics"
	"lockin/internal/sweep"
	"lockin/internal/workload"
)

// Files initialize in name order, so ablation registers after locks.go's
// figures and before taillat.go's fig10_tail, its place in the
// `-experiment all` order.
func init() {
	register(Experiment{
		ID:    "ablation",
		Title: "MUTEXEE design ablations (single lock, 20 threads)",
		Paper: "§5.1 sensitivity: ≥4000-cycle spin crucial for throughput; unlock user-space wait crucial for power; mbar vs pause worth ≈4 W on TICKET",
		Grid:  runAblation,
	})
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
