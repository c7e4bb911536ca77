package workload

import (
	"fmt"
	"math/rand"

	"lockin/internal/core"
	"lockin/internal/machine"
	"lockin/internal/metrics"
	"lockin/internal/sim"
	"lockin/internal/sweep"
)

// LockFactory builds the lock instances for a run.
type LockFactory func(m *machine.Machine) core.Lock

// FactoryFor adapts a catalogue algorithm kind into a LockFactory.
func FactoryFor(k core.Kind) LockFactory {
	return func(m *machine.Machine) core.Lock { return core.New(m, k) }
}

// FactoryNamed resolves a lock-algorithm name, as printed by the
// algorithm's Name method, into a LockFactory. Scenario specs use it to
// select algorithms by string.
func FactoryNamed(name string) (LockFactory, error) {
	k, err := core.ParseKind(name)
	if err != nil {
		return nil, fmt.Errorf("workload: %w", err)
	}
	return FactoryFor(k), nil
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

// RunMicro executes the microbenchmark described by cfg on a Runner:
// each worker picks a lock (uniformly from the array when there is
// more than one), runs its critical section and outside work, and
// counts the acquisition when it ends inside the window. Every
// acquisition also counts in its worker's tally, Result.Acquires.
func RunMicro(cfg MicroConfig) Result {
	if cfg.Threads <= 0 {
		panic("workload: Threads must be positive")
	}
	if cfg.Locks <= 0 {
		cfg.Locks = 1
	}
	var lat *metrics.Histogram
	if cfg.RecordLatency {
		lat = metrics.NewHistogram()
	}
	r := newRunner(cfg.Machine, cfg.Warmup, cfg.Duration, lat)
	locks := make([]core.Lock, cfg.Locks)
	for i := range locks {
		locks[i] = cfg.Factory(r.M)
	}

	acquires := make([]uint64, cfg.Threads)
	for i := 0; i < cfg.Threads; i++ {
		// Only a lock array draws from the generator, and seeding a
		// 4.9 KB one per worker is not cheap, so one-lock runs build
		// none.
		var rng *rand.Rand
		if cfg.Locks > 1 {
			rng = rand.New(rand.NewSource(cfg.Machine.Seed + int64(i)*7919))
		}
		r.M.Spawn("worker", func(t *machine.Thread) {
			for r.Running(t) {
				l := locks[0]
				if cfg.Locks > 1 {
					l = locks[rng.Intn(cfg.Locks)]
				}
				start := t.Proc().Now()
				l.Lock(t)
				acquired := t.Proc().Now()
				t.Compute(cfg.CS)
				l.Unlock(t)
				acquires[i]++
				r.Count(t)
				// Latency is recorded for every acquisition overlapping the
				// window, so starved waits that straddle either boundary —
				// precisely the tail-latency cases — are not dropped.
				if lat != nil && acquired >= r.measFrom && start < r.measTo {
					lat.Record(acquired - start)
				}
				t.Compute(cfg.Outside)
			}
		})
	}

	res := r.Finish()
	for _, n := range acquires {
		res.TotalAcquires += n
	}
	res.Acquires, res.Locks = acquires, locks
	return res
}
