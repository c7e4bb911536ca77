// Package machine assembles the simulation substrates (event kernel,
// coherence, power, OS scheduler, futex) into a single simulated computer
// and exposes the thread-level operation set that lock algorithms and
// workloads program against: memory and atomic operations on cache lines,
// busy-wait epochs under a choice of waiting policy (none/pause/mbar/
// mwait/global/DVFS), futex calls, and plain computation.
//
// Busy waiting is simulated in epochs, not iterations: a spinning thread
// registers a coherence watcher and parks, while the power meter charges
// its context at the policy's wattage. This keeps multi-hundred-million
// cycle experiments tractable while preserving the paper's observable
// costs (wake-up transfer latency, contended-atomic arbitration,
// timeslice preemption of spinners under oversubscription).
//
// Every busy-wait (SpinUntil, SpinUntilLimit, SpinFor and SpinAcquire's
// retries) is one spin call, a sched.Call: the thread parks once, and
// the policy's enter and exit costs, each epoch, each preemption by the
// slice timer and each retry run as kernel callbacks, where the thread
// would have run them itself.
package machine

import (
	"lockin/internal/coherence"
	"lockin/internal/futex"
	"lockin/internal/power"
	"lockin/internal/sched"
	"lockin/internal/sim"
	"lockin/internal/topo"
)

// Config aggregates the substrate configurations.
type Config struct {
	Seed  int64
	Topo  topo.Topology
	Coh   coherence.Config
	Power power.Config
	Sched sched.Config
	Futex futex.Config

	MwaitEnter sim.Cycles // kernel crossing to arm monitor/mwait (≈700)
	MwaitWake  sim.Cycles // mwait exit latency (≈1600 best case)
	DVFSSwitch sim.Cycles // voltage-frequency switch latency (≈5300)
}

// DefaultConfig returns the Xeon calibration with the given RNG seed.
func DefaultConfig(seed int64) Config {
	return Config{
		Seed:       seed,
		Topo:       topo.Xeon(),
		Coh:        coherence.DefaultConfig(),
		Power:      power.DefaultConfig(),
		Sched:      sched.DefaultConfig(),
		Futex:      futex.DefaultConfig(),
		MwaitEnter: 700,
		MwaitWake:  1600,
		DVFSSwitch: 5300,
	}
}

// Machine is one simulated computer.
type Machine struct {
	cfg   Config
	K     *sim.Kernel
	Topo  topo.Topology
	Coh   *coherence.Model
	Meter *power.Meter
	Sched *sched.Scheduler
	Futex *futex.Table

	instr instrStats
}

// instrStats tracks retired-instruction estimates per activity for CPI
// reporting (Figures 3 and 4).
type instrStats struct {
	cycles [power.Mwait + 1]float64
	instrs [power.Mwait + 1]float64
}

// New builds a machine from a configuration.
func New(cfg Config) *Machine {
	if err := cfg.Topo.Validate(); err != nil {
		panic(err)
	}
	k := sim.NewKernel(cfg.Seed)
	meter := power.NewMeter(k, cfg.Power, cfg.Topo)
	s := sched.New(k, cfg.Sched, cfg.Topo, meter)
	m := &Machine{
		cfg:   cfg,
		K:     k,
		Topo:  cfg.Topo,
		Coh:   coherence.NewModel(k, cfg.Coh, cfg.Topo),
		Meter: meter,
		Sched: s,
		Futex: futex.NewTable(k, s, cfg.Futex),
	}
	return m
}

// NewDefault builds a Xeon-calibrated machine.
func NewDefault(seed int64) *Machine { return New(DefaultConfig(seed)) }

// Config returns the machine's configuration.
func (m *Machine) Config() Config { return m.cfg }

// NewLine allocates a cache line.
func (m *Machine) NewLine(name string) *coherence.Line { return m.Coh.NewLine(name) }

// NewFutexWord allocates a futex word backed by a cache line's value.
func (m *Machine) NewFutexWord(l *coherence.Line) *futex.Word {
	return m.Futex.NewWord(func() uint64 { return l.Val() })
}

// Thread is a simulated software thread with the full operation set.
type Thread struct {
	*sched.Thread
	m *Machine

	// spin is the pooled spin call (see spin.go), created lazily on the
	// first busy-wait and reused for every one after.
	spin *spinState
}

// Spawn creates and enqueues a thread running body.
func (m *Machine) Spawn(name string, body func(*Thread)) *Thread {
	t := &Thread{m: m}
	t.Thread = m.Sched.Spawn(name, func(st *sched.Thread) { body(t) })
	return t
}

// Machine returns the owning machine.
func (t *Thread) Machine() *Machine { return t.m }

func (m *Machine) note(a power.Activity, cycles sim.Cycles) {
	cpi := activityCPI(a, 0)
	m.instr.cycles[a] += float64(cycles)
	m.instr.instrs[a] += float64(cycles) / cpi
}

// activityCPI estimates cycles-per-instruction for an activity class.
// pollers refines the estimate for global spinning (each atomic takes
// base + per-poller arbitration cycles and retires ≈3 instructions).
func activityCPI(a power.Activity, pollers int) float64 {
	switch a {
	case power.Compute:
		return 1.0
	case power.MemStress:
		return 3.0
	case power.SpinLocal:
		return 0.33
	case power.SpinPause:
		return 4.6
	case power.SpinMbar:
		return 33
	case power.SpinGlobal:
		// The dominating instruction is the atomic itself: its latency
		// grows with the poller population (≈530 cycles at 40, §4.1).
		if pollers > 0 {
			return 20.0 + 13.0*float64(pollers)
		}
		return 100
	case power.Mwait:
		return 5000
	}
	return 1.0
}

// CPI returns the modelled cycles-per-instruction aggregated over all
// busy-wait activity so far (Compute excluded), mirroring the CPI plots
// of Figures 3-4. Returns 0 when no wait cycles were recorded.
func (m *Machine) CPI(acts ...power.Activity) float64 {
	var cyc, ins float64
	for _, a := range acts {
		cyc += m.instr.cycles[a]
		ins += m.instr.instrs[a]
	}
	if ins == 0 {
		return 0
	}
	return cyc / ins
}

// Compute executes c cycles of CPU-bound work.
func (t *Thread) Compute(c sim.Cycles) {
	if c == 0 {
		return
	}
	t.SetActivity(power.Compute)
	t.Run(c)
	t.m.note(power.Compute, c)
}

// ComputeMem executes c cycles of memory-bound work (drives DRAM power).
func (t *Thread) ComputeMem(c sim.Cycles) {
	if c == 0 {
		return
	}
	t.SetActivity(power.MemStress)
	t.Run(c)
	t.m.note(power.MemStress, c)
}

// Load reads a cache line.
func (t *Thread) Load(l *coherence.Line) uint64 {
	v, cost := l.Read(t.Ctx())
	t.SetActivity(power.Compute)
	t.Run(cost)
	t.m.note(power.Compute, cost)
	return v
}

// Store writes a cache line.
func (t *Thread) Store(l *coherence.Line, v uint64) {
	cost := l.Write(t.Ctx(), v)
	t.SetActivity(power.Compute)
	t.Run(cost)
	t.m.note(power.Compute, cost)
}

// CAS performs a compare-and-swap, returning success.
func (t *Thread) CAS(l *coherence.Line, old, new uint64) bool {
	_, ok := t.RMW(l, func(v uint64) (uint64, bool) { return new, v == old })
	return ok
}

// Swap atomically exchanges the line value, returning the old value.
func (t *Thread) Swap(l *coherence.Line, v uint64) uint64 {
	old, _ := t.RMW(l, func(uint64) (uint64, bool) { return v, true })
	return old
}

// RMW applies an arbitrary atomic read-modify-write: f returns the new
// value and whether to apply it. Returns the old value and whether it was
// applied.
func (t *Thread) RMW(l *coherence.Line, f func(uint64) (uint64, bool)) (uint64, bool) {
	old, ok, cost := t.startRMW(l, f)
	t.Run(cost)
	t.m.note(power.Compute, cost)
	return old, ok
}

// startRMW is the first half of an atomic: the coherence operation, with
// the context charged as computing from then on. The caller runs the
// returned cost and then notes it as Compute: RMW on the thread, and
// SpinAcquire's retries in the spin call (spin.go).
func (t *Thread) startRMW(l *coherence.Line, f func(uint64) (uint64, bool)) (uint64, bool, sim.Cycles) {
	old, ok, cost := l.RMW(t.Ctx(), f)
	t.SetActivity(power.Compute)
	return old, ok, cost
}

// FetchAdd atomically adds d, returning the previous value.
func (t *Thread) FetchAdd(l *coherence.Line, d uint64) uint64 {
	old, _ := t.RMW(l, func(v uint64) (uint64, bool) { return v + d, true })
	return old
}

// FutexWait sleeps on w while it holds val (timeout 0 = none).
func (t *Thread) FutexWait(w *futex.Word, val uint64, timeout sim.Cycles) futex.WaitResult {
	t.SetActivity(power.Compute)
	return t.m.Futex.Wait(t.Thread, w, val, timeout)
}

// FutexWake wakes up to n sleepers on w.
func (t *Thread) FutexWake(w *futex.Word, n int) int {
	t.SetActivity(power.Compute)
	return t.m.Futex.Wake(t.Thread, w, n)
}
