package experiments

import (
	"lockin/internal/core"
	"lockin/internal/machine"
	"lockin/internal/metrics"
	"lockin/internal/sim"
	"lockin/internal/sweep"
	"lockin/internal/workload"
)

// Files initialize in name order, so ablation and tbl_tune register
// after locks.go's figures and before taillat.go's fig10_tail, their
// place in the `-experiment all` order.
func init() {
	register(Experiment{
		ID:    "ablation",
		Title: "MUTEXEE design ablations (single lock, 20 threads)",
		Paper: "§5.1 sensitivity: ≥4000-cycle spin crucial for throughput; unlock user-space wait crucial for power; mbar vs pause worth ≈4 W on TICKET",
		Grid:  runAblation,
	})
	register(Experiment{
		ID:    "tbl_tune",
		Title: "MUTEXEE platform tuning (§5.1 fine-tuning script)",
		Paper: "§5.1: MUTEXEE's spin budgets follow from the platform's futex sleep/wake latencies and worst-case coherence latency; the Xeon tuning is SpinLock 8000, SpinUnlock 384, MutexLock 256, MutexUnlock 128 cycles",
		Grid:  runTune,
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
		{"MUTEXEE spin=500", core.MutexeeWith(func(o *core.MutexeeOptions) { o.SpinLock = 500 })},
		{"MUTEXEE no unlock-wait", core.MutexeeWith(func(o *core.MutexeeOptions) { o.UnlockWait = false })},
		{"MUTEXEE no adaptation", core.MutexeeWith(func(o *core.MutexeeOptions) { o.Adaptive = false })},
		{"MUTEX (reference)", workload.FactoryFor(core.KindMutex)},
		{"TICKET mbar", workload.FactoryFor(core.KindTicket)},
		{"TICKET pause", workload.FactoryFor(core.KindTicketPause)},
	}
	g := sweep.NewGrid(o)
	for _, v := range variants {
		g.Add(func(c sweep.Cell) []sweep.Row {
			cfg := workload.DefaultMicroConfig(c.Seed)
			cfg.Factory = v.f
			cfg.Threads = 20
			cfg.CS = 2000
			cfg.Outside = 500
			cfg.Warmup = o.Window(300_000)
			cfg.Duration = o.Window(15_000_000)
			r := workload.RunMicro(cfg)
			return []sweep.Row{{v.name, r.Throughput() / 1e3, r.TPP() / 1e3, r.Power().Total}}
		})
	}
	g.Into(t)
	return []*metrics.Table{t}
}

// runTune is the paper's fine-tuning script (§5.1): three calibration
// probes measure the futex sleep-call latency, the wake turnaround and
// the worst-case coherence latency, and the MUTEXEE configuration
// follows from them. The probes measure one interaction each, so the
// grid is one cell.
func runTune(o Options) []*metrics.Table {
	t := metrics.NewTable("MUTEXEE platform tuning (simulated Xeon)",
		"parameter", "cycles")
	g := sweep.NewGrid(o)
	g.Add(func(c sweep.Cell) []sweep.Row {
		sleepLat := measureSleepLatency(c.Seed)
		turnaround := measureTurnaround(c.Seed, o.Window(50_000))
		coherence := measureCoherence(c.Seed)
		// The paper's rules of thumb: the lock-side spin must comfortably
		// exceed the sleep latency (spinning less than ≈4000 cycles makes
		// MUTEXEE behave like MUTEX), and the unlock-side wait must cover
		// the worst-case line transfer.
		spinLock := roundUp(turnaround, 1000)
		spinUnlock := roundUp(coherence, 128)
		return []sweep.Row{
			{"futex sleep call latency", sleepLat},
			{"futex wake turnaround", turnaround},
			{"max coherence latency", coherence},
			{"SpinLock", spinLock},
			{"SpinUnlock", spinUnlock},
			{"MutexLock", spinLock / 32},
			{"MutexUnlock", spinUnlock / 3},
		}
	})
	g.Into(t)
	t.AddNote("rows 1-3 are measured; rows 4-7 are the recommended MutexeeOptions")
	t.AddNote("Pol: machine.WaitMbar (memory-barrier pausing)")
	d := core.DefaultMutexeeOptions()
	t.AddNote("every experiment runs DefaultMutexeeOptions: SpinLock %d, SpinUnlock %d, MutexLock %d, MutexUnlock %d",
		d.SpinLock, d.SpinUnlock, d.MutexLock, d.MutexUnlock)
	return []*metrics.Table{t}
}

func roundUp(v sim.Cycles, q sim.Cycles) sim.Cycles { return (v + q - 1) / q * q }

// measureSleepLatency times the futex sleep path via a wait that misses
// (EAGAIN) plus the descheduling tail from configuration.
func measureSleepLatency(seed int64) sim.Cycles {
	m := machine.NewDefault(seed)
	line := m.NewLine("word")
	w := m.NewFutexWord(line)
	var cost sim.Cycles
	m.Spawn("probe", func(t *machine.Thread) {
		line.Init(0)
		start := t.Proc().Now()
		t.FutexWait(w, 1, 0) // mismatch: measures the call overhead
		cost = t.Proc().Now() - start
	})
	m.K.Drain()
	return cost + m.Config().Futex.Deschedule
}

// measureTurnaround times wake-to-running for a freshly slept thread.
// settle is how long the waker computes before issuing the wake, so
// the sleeper is reliably descheduled first (scaled by Options.Scale).
func measureTurnaround(seed int64, settle sim.Cycles) sim.Cycles {
	m := machine.NewDefault(seed)
	line := m.NewLine("word")
	line.Init(1)
	w := m.NewFutexWord(line)
	var resumed, issued sim.Cycles
	m.Spawn("sleeper", func(t *machine.Thread) {
		t.FutexWait(w, 1, 0)
		resumed = t.Proc().Now()
	})
	m.Spawn("waker", func(t *machine.Thread) {
		t.Compute(settle)
		issued = t.Proc().Now()
		t.FutexWake(w, 1)
	})
	m.K.Drain()
	return resumed - issued
}

// measureCoherence times a cross-socket line handover.
func measureCoherence(seed int64) sim.Cycles {
	m := machine.NewDefault(seed)
	line := m.NewLine("probe")
	var cost sim.Cycles
	ready := false
	m.Spawn("writer", func(t *machine.Thread) {
		t.Store(line, 1)
		ready = true
	})
	m.Spawn("reader", func(t *machine.Thread) {
		for !ready {
			t.Compute(1000)
		}
		start := t.Proc().Now()
		t.Swap(line, 2)
		cost = t.Proc().Now() - start
	})
	m.K.Drain()
	return 2 * cost
}
