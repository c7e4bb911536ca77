// Package lockin is a reproduction of "Unlocking Energy" (Falsafi,
// Guerraoui, Picorel, Trigonakis — USENIX ATC 2016): an energy-efficiency
// study of lock algorithms, the POLY conjecture (throughput and energy
// efficiency go hand in hand in locks), and MUTEXEE, an optimized
// futex-based mutex.
//
// The package offers two entry points:
//
//   - A deterministic simulated two-socket Xeon (NewMachine) on which the
//     paper's lock algorithms (NewLock, Kinds) run with calibrated
//     coherence, futex, scheduler and power models — including RAPL-style
//     energy counters, which portable Go cannot read from real hardware.
//   - The microbenchmark of the paper's evaluation (RunMicro) and one
//     runner per paper table/figure (Experiments, RunExperiment),
//     including the §5.1 tuning probes (tbl_tune) and the §6 systems of
//     Figures 13-15.
//
// Experiment grids (lock kind × thread count × critical-section length)
// run through the parallel sweep engine (internal/sweep, re-exported as
// SweepOptions/RunMicroSweep): independent cells fan out across worker
// goroutines, each on its own simulated machine with a stable per-cell
// seed, so parallel output is bit-identical to a serial run. See
// README.md for the package layout, the sweep engine's determinism
// contract, and how to run the CI checks locally.
package lockin

import (
	"lockin/internal/core"
	"lockin/internal/experiments"
	"lockin/internal/machine"
	"lockin/internal/metrics"
	"lockin/internal/sweep"
	"lockin/internal/topo"
	"lockin/internal/workload"

	// Register the bundled declarative scenarios (scenario:*) and
	// Figures 13-15, which run on them, so Experiments()/RunExperiment
	// see them like the built-in figures.
	_ "lockin/internal/scenario"
)

// Machine is a simulated multicore computer (see internal/machine).
type Machine = machine.Machine

// Thread is a simulated software thread with the full operation set.
type Thread = machine.Thread

// Lock is the mutual-exclusion abstraction of the simulated algorithms.
type Lock = core.Lock

// Kind enumerates the built-in simulated lock algorithms.
type Kind = core.Kind

// The built-in simulated lock algorithms, in the paper's order.
const (
	MUTEX   = core.KindMutex
	TAS     = core.KindTAS
	TTAS    = core.KindTTAS
	TICKET  = core.KindTicket
	MCS     = core.KindMCS
	CLH     = core.KindCLH
	MUTEXEE = core.KindMutexee
)

// Kinds returns every built-in simulated algorithm.
func Kinds() []Kind { return core.AllKinds() }

// NewMachine builds a simulated Xeon (2 sockets × 10 cores × 2 threads)
// calibrated to the paper's measurements, seeded for reproducibility.
func NewMachine(seed int64) *Machine { return machine.NewDefault(seed) }

// NewDesktopMachine builds the paper's Core i7 desktop (4 cores × 2
// threads).
func NewDesktopMachine(seed int64) *Machine {
	cfg := machine.DefaultConfig(seed)
	cfg.Topo = topo.CoreI7()
	return machine.New(cfg)
}

// NewLock instantiates a simulated lock algorithm on m.
func NewLock(m *Machine, k Kind) Lock { return core.New(m, k) }

// NewMutexee instantiates MUTEXEE with explicit options (timeouts, spin
// budgets, mode adaptation, ablation switches).
func NewMutexee(m *Machine, o core.MutexeeOptions) *core.Mutexee { return core.NewMutexee(m, o) }

// MutexeeOptions re-exports the MUTEXEE configuration.
type MutexeeOptions = core.MutexeeOptions

// DefaultMutexeeOptions returns the paper's Xeon tuning.
func DefaultMutexeeOptions() MutexeeOptions { return core.DefaultMutexeeOptions() }

// MicroConfig parameterizes a lock microbenchmark (threads × locks ×
// critical-section / outside-work durations over a measured window).
type MicroConfig = workload.MicroConfig

// MicroResult is a finished microbenchmark with throughput, power, TPP
// and optional latency histogram.
type MicroResult = workload.Result

// DefaultMicroConfig returns a single-lock configuration on the Xeon.
func DefaultMicroConfig(seed int64) MicroConfig { return workload.DefaultMicroConfig(seed) }

// RunMicro executes a microbenchmark.
func RunMicro(cfg MicroConfig) MicroResult { return workload.RunMicro(cfg) }

// SweepOptions configures a run through the parallel sweep engine, a
// microbenchmark sweep (RunMicroSweep) or an experiment
// (RunExperimentWith): worker count, base seed, window scale, quick
// grids and an optional progress callback. Results are bit-identical
// for any Workers value. The Quick field only trims the grids of
// pre-built experiments; it has no effect on an explicit configuration
// list.
type SweepOptions = sweep.Options

// DefaultSweepOptions returns quick settings with a fixed seed and one
// worker per CPU.
func DefaultSweepOptions() SweepOptions { return sweep.DefaultOptions() }

// RunMicroSweep executes many microbenchmark configurations as a
// parallel sweep, one simulated machine per configuration seeded with a
// stable hash of (o.Seed, index). Results come back in configuration
// order.
func RunMicroSweep(o SweepOptions, cfgs []MicroConfig) []MicroResult {
	return workload.RunSweep(o, cfgs)
}

// FactoryFor adapts a Kind into the factory used by MicroConfig.
func FactoryFor(k Kind) workload.LockFactory { return workload.FactoryFor(k) }

// Experiments returns every paper table/figure runner.
func Experiments() []experiments.Experiment { return experiments.All() }

// RunExperiment executes one experiment by id (e.g. "fig11", "tbl2")
// with default quick options and returns its rendered tables.
func RunExperiment(id string) ([]*metrics.Table, error) {
	return RunExperimentWith(id, DefaultSweepOptions())
}

// RunExperimentWith executes one experiment under explicit options —
// including SweepOptions.Workers, which fans the experiment's grid
// cells out across parallel workers without changing the output.
func RunExperimentWith(id string, o SweepOptions) ([]*metrics.Table, error) {
	e, err := experiments.Find(id)
	if err != nil {
		return nil, err
	}
	return e.Run(o), nil
}
