// Package workload provides the microbenchmark harness of the paper's §5
// evaluation: N threads acquiring L locks at random, with configurable
// critical-section and outside-work durations, measured over a warmup +
// measurement window for throughput, power, energy efficiency (TPP) and
// per-acquisition latency.
package workload

import (
	"math/rand"

	"lockin/internal/core"
	"lockin/internal/machine"
	"lockin/internal/metrics"
	"lockin/internal/power"
	"lockin/internal/sim"
	"lockin/internal/sweep"
)

// LockFactory builds the lock instances for a run.
type LockFactory func(m *machine.Machine) core.Lock

// FactoryFor adapts a built-in algorithm kind into a LockFactory.
func FactoryFor(k core.Kind) LockFactory {
	return func(m *machine.Machine) core.Lock { return core.New(m, k) }
}

// MicroConfig parameterizes one microbenchmark run.
type MicroConfig struct {
	Machine machine.Config
	Factory LockFactory

	Threads int
	Locks   int        // size of the lock array each iteration picks from
	CS      sim.Cycles // critical-section duration
	Outside sim.Cycles // non-critical work between acquisitions

	Warmup   sim.Cycles // cycles before the measurement window opens
	Duration sim.Cycles // measurement-window length

	RecordLatency bool // collect per-acquisition latency histogram
}

// DefaultMicroConfig returns a single-lock configuration on the Xeon.
func DefaultMicroConfig(seed int64) MicroConfig {
	return MicroConfig{
		Machine:  machine.DefaultConfig(seed),
		Factory:  FactoryFor(core.KindMutex),
		Threads:  1,
		Locks:    1,
		CS:       1000,
		Outside:  100,
		Warmup:   500_000,
		Duration: 20_000_000,
	}
}

// Result carries the measurement plus harness-level counters.
type Result struct {
	metrics.Measurement
	Latency *metrics.Histogram // nil unless RecordLatency
	// TotalAcquires counts every acquisition, including warmup/cooldown.
	TotalAcquires uint64
	// EndTime is the virtual time of the run's last event, which Drain
	// returns. It is normally the deep-idle timer that the scheduler arms
	// IdleDeepAfter cycles after the last thread leaves its context, not
	// the time that thread exited.
	EndTime sim.Cycles
	// Machine gives access to post-run statistics (futex, coherence).
	Machine *machine.Machine
	// Locks exposes the lock instances (e.g. for MUTEXEE statistics).
	Locks []core.Lock
}

// RunSweep executes each configuration as one cell of a parallel sweep
// grid and returns the results in configuration order. Every cell runs
// on its own simulated machine whose seed is replaced with
// sweep.CellSeed(o.Seed, index), so the output is bit-identical for any
// worker count (including the serial fallback o.Workers == 1).
// Each configuration's warmup and measurement windows scale by
// o.Window.
func RunSweep(o sweep.Options, cfgs []MicroConfig) []Result {
	return sweep.Run(o, len(cfgs), func(c sweep.Cell) Result {
		cfg := cfgs[c.Index]
		cfg.Machine.Seed = c.Seed
		cfg.Warmup, cfg.Duration = o.Window(cfg.Warmup), o.Window(cfg.Duration)
		return RunMicro(cfg)
	})
}

// RunMicro executes the microbenchmark described by cfg.
func RunMicro(cfg MicroConfig) Result {
	if cfg.Threads <= 0 {
		panic("workload: Threads must be positive")
	}
	if cfg.Locks <= 0 {
		cfg.Locks = 1
	}
	m := machine.New(cfg.Machine)
	locks := make([]core.Lock, cfg.Locks)
	for i := range locks {
		locks[i] = cfg.Factory(m)
	}

	var (
		ops      uint64
		total    uint64
		lat      *metrics.Histogram
		measFrom = cfg.Warmup
		measTo   = cfg.Warmup + cfg.Duration
	)
	if cfg.RecordLatency {
		lat = metrics.NewHistogram()
	}

	for i := 0; i < cfg.Threads; i++ {
		rng := rand.New(rand.NewSource(cfg.Machine.Seed + int64(i)*7919))
		m.Spawn("worker", func(t *machine.Thread) {
			for {
				now := t.Proc().Now()
				if now >= measTo {
					return
				}
				l := locks[0]
				if cfg.Locks > 1 {
					l = locks[rng.Intn(cfg.Locks)]
				}
				start := t.Proc().Now()
				l.Lock(t)
				acquired := t.Proc().Now()
				t.Compute(cfg.CS)
				l.Unlock(t)
				total++
				end := t.Proc().Now()
				if end >= measFrom && end < measTo {
					ops++
				}
				// Latency is recorded for every acquisition overlapping the
				// window, so starved waits that straddle either boundary —
				// precisely the tail-latency cases — are not dropped.
				if lat != nil && acquired >= measFrom && start < measTo {
					lat.Record(acquired - start)
				}
				t.Compute(cfg.Outside)
			}
		})
	}

	// Snapshot energy at the window boundaries.
	var e0, e1 power.Energy
	m.K.Schedule(measFrom, func() { e0 = m.Meter.Energy() })
	m.K.Schedule(measTo, func() { e1 = m.Meter.Energy() })
	end := m.K.Drain()

	return Result{
		Measurement: metrics.Measurement{
			Ops:     ops,
			Window:  cfg.Duration,
			Energy:  e1.Sub(e0),
			BaseGHz: cfg.Machine.Power.BaseFreqGHz,
		},
		Latency:       lat,
		TotalAcquires: total,
		EndTime:       end,
		Machine:       m,
		Locks:         locks,
	}
}
