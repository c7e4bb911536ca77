// Package workload is the measured-run harness of every experiment.
// A Runner hosts one run: a fresh simulated machine, a warm-up, then
// a measurement window whose completed operations, latencies and
// RAPL-style energy make the run's Result. RunMicro is the paper's §5
// lock microbenchmark on a Runner (N threads acquiring L locks at
// random, with configurable critical-section and outside-work
// durations), and RunSweep runs many of them as one parallel sweep.
// The Figure 1-5 stress tests, the §4.4 sleep table, Figure 7 and the
// compiled scenarios of §6 are bodies on a Runner too.
package workload

import (
	"math/rand"

	"lockin/internal/core"
	"lockin/internal/machine"
	"lockin/internal/metrics"
	"lockin/internal/power"
	"lockin/internal/sim"
)

// Runner hosts one measured run: a machine, the measurement window
// [warmup, warmup+duration) and the operation and latency accounting
// every workload body shares. An operation counts when it ends inside
// the window.
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
	return newRunner(mc, warmup, duration, metrics.NewHistogram())
}

// newRunner builds a runner whose latencies go to lat. RunMicro passes
// nil unless it records latencies, so a cell pays for no histogram it
// never fills.
func newRunner(mc machine.Config, warmup, duration sim.Cycles, lat *metrics.Histogram) *Runner {
	return &Runner{
		M:        machine.New(mc),
		measFrom: warmup,
		measTo:   warmup + duration,
		lat:      lat,
		rngSeed:  mc.Seed,
	}
}

// Running reports whether the thread should start another operation:
// whether the window is still open.
func (r *Runner) Running(t *machine.Thread) bool { return t.Proc().Now() < r.measTo }

// Count counts one operation completed now, without a latency. It
// reports whether the operation ended inside the window and was
// counted.
func (r *Runner) Count(t *machine.Thread) bool {
	end := t.Proc().Now()
	if end >= r.measFrom && end < r.measTo {
		r.ops++
		return true
	}
	return false
}

// Note counts one operation completed now, like Count, and records its
// latency from start. It reports whether the operation landed in the
// measurement window and was counted, so callers keeping side tallies
// (per-group columns in compiled scenarios) count exactly the same
// operations.
func (r *Runner) Note(t *machine.Thread, start sim.Cycles) bool {
	if !r.Count(t) {
		return false
	}
	r.lat.Record(t.Proc().Now() - start)
	return true
}

// RNG returns a per-thread deterministic RNG.
func (r *Runner) RNG(id int) *rand.Rand {
	return rand.New(rand.NewSource(r.rngSeed + int64(id)*104729))
}

// Result is a finished measured run.
type Result struct {
	metrics.Measurement
	// Latency holds the latencies Note recorded; RunMicro's holds its
	// acquisition latencies instead and is nil unless RecordLatency.
	Latency *metrics.Histogram
	// TotalAcquires counts every acquisition of a RunMicro, including
	// warmup/cooldown, and Acquires splits it by worker.
	TotalAcquires uint64
	Acquires      []uint64
	// EndTime is the virtual time of the run's last event, which Drain
	// returns. It is normally the deep-idle timer that the scheduler arms
	// IdleDeepAfter cycles after the last thread leaves its context, not
	// the time that thread exited.
	EndTime sim.Cycles
	// Machine gives access to post-run statistics (futex, coherence).
	Machine *machine.Machine
	// Locks exposes a RunMicro's lock instances (e.g. for MUTEXEE
	// statistics).
	Locks []core.Lock
}

// Finish drains the simulation and returns the measurement. The energy
// is read at the window's two boundaries.
func (r *Runner) Finish() Result {
	var e0, e1 power.Energy
	r.M.K.Schedule(r.measFrom, func() { e0 = r.M.Meter.Energy() })
	r.M.K.Schedule(r.measTo, func() { e1 = r.M.Meter.Energy() })
	end := r.M.K.Drain()
	return Result{
		Measurement: metrics.Measurement{
			Ops:     r.ops,
			Window:  r.measTo - r.measFrom,
			Energy:  e1.Sub(e0),
			BaseGHz: r.M.Config().Power.BaseFreqGHz,
		},
		Latency: r.lat,
		EndTime: end,
		Machine: r.M,
	}
}
