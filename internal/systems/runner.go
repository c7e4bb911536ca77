// Package systems is the harness the paper's whole-program workloads
// run on: a Runner (one machine, a measurement window, operation and
// latency accounting) and Definition, a workload body spawned against
// it. The package holds the Figure 1 CopyOnWriteArrayList stress test,
// the Figure 2 memory-stress benchmark and the Figures 3-5 waiting
// stress tests.
//
// The six software systems of the paper's §6 evaluation (HamsterDB,
// Kyoto Cabinet, Memcached, MySQL, RocksDB and SQLite) are not coded
// here: they are bundled scenario specs, and package scenario compiles
// them onto this Runner and defines Table 3 and Figures 13-15 as
// points of their grids.
package systems

import (
	"math/rand"

	"lockin/internal/machine"
	"lockin/internal/metrics"
	"lockin/internal/power"
	"lockin/internal/sim"
	"lockin/internal/workload"
)

// Runner hosts one system execution: machine, measurement window and
// operation accounting shared by all workload bodies.
type Runner struct {
	M        *machine.Machine
	measFrom sim.Cycles
	measTo   sim.Cycles
	ops      uint64
	lat      *metrics.Histogram
	rngSeed  int64
}

// NewRunner builds a runner on a fresh machine with the given window.
func NewRunner(mc machine.Config, warmup, duration sim.Cycles) *Runner {
	return &Runner{
		M:        machine.New(mc),
		measFrom: warmup,
		measTo:   warmup + duration,
		lat:      metrics.NewHistogram(),
		rngSeed:  mc.Seed,
	}
}

// Running reports whether the thread should start another operation.
func (r *Runner) Running(t *machine.Thread) bool { return t.Proc().Now() < r.measTo }

// Note records one completed operation that started at the given
// time. It reports whether the operation landed in the measurement
// window and was counted, so callers keeping side tallies (per-group
// columns in compiled scenarios) count exactly the same operations.
func (r *Runner) Note(t *machine.Thread, start sim.Cycles) bool {
	end := t.Proc().Now()
	if end >= r.measFrom && end < r.measTo {
		r.ops++
		r.lat.Record(end - start)
		return true
	}
	return false
}

// RNG returns a per-thread deterministic RNG.
func (r *Runner) RNG(id int) *rand.Rand {
	return rand.New(rand.NewSource(r.rngSeed + int64(id)*104729))
}

// Result is a finished system run.
type Result struct {
	metrics.Measurement
	Latency *metrics.Histogram
}

// Finish drains the simulation and returns the measurement.
func (r *Runner) Finish() Result {
	var e0, e1 power.Energy
	r.M.K.Schedule(r.measFrom, func() { e0 = r.M.Meter.Energy() })
	r.M.K.Schedule(r.measTo, func() { e1 = r.M.Meter.Energy() })
	r.M.K.Drain()
	return Result{
		Measurement: metrics.Measurement{
			Ops:     r.ops,
			Window:  r.measTo - r.measFrom,
			Energy:  e1.Sub(e0),
			BaseGHz: r.M.Config().Power.BaseFreqGHz,
		},
		Latency: r.lat,
	}
}

// Definition is a workload body: it spawns the workload's threads
// against the runner, taking locks from the factory.
type Definition func(r *Runner, f workload.LockFactory)

// Run executes the definition with the given lock factory and window.
func (d Definition) Run(mc machine.Config, f workload.LockFactory, warmup, duration sim.Cycles) Result {
	r := NewRunner(mc, warmup, duration)
	d(r, f)
	return r.Finish()
}

// Block deschedules the thread for roughly d cycles, modelling
// blocking I/O: the hardware context is released to the OS until the
// wakeup fires. Compiled scenarios use it for SSD reads and bursty
// producers.
func Block(t *machine.Thread, d sim.Cycles) {
	th := t.Thread
	s := th.Scheduler()
	k := s.Kernel()
	k.Schedule(d, func() { s.Unblock(th, 0) })
	th.Block()
}
