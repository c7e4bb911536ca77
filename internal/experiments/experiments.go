// Package experiments is the registry of reproducible tables and
// figures, with one runner per table and figure of the paper's
// evaluation up to Figure 12, plus extensions. Each runner regenerates
// the corresponding rows or series on the simulated Xeon and annotates
// them with the paper's reported expectation, so paper-vs-measured
// comparisons can be refreshed with a single command (`lockbench
// -experiment all`). A runner is a grid of cells that emits rows per
// cell, plus, for the figures that summarize a whole grid, a pure
// reduce step over those rows. Figures 13-15 and the bundled scenarios
// register from package scenario, which imports this one.
//
// Durations default to quick settings (tens of millions of cycles per
// data point instead of the paper's 10-second runs); Options.Scale
// lengthens every window proportionally for higher-fidelity runs.
package experiments

import (
	"errors"
	"fmt"
	"sort"

	"lockin/internal/machine"
	"lockin/internal/metrics"
	"lockin/internal/sim"
	"lockin/internal/sweep"
)

// Options tunes an experiment run.
type Options struct {
	// Seed is the base RNG seed; every grid cell runs on its own
	// simulated machine seeded with sweep.CellSeed(Seed, cell index).
	Seed int64
	// Scale multiplies every measurement window (1.0 = quick defaults).
	Scale float64
	// Quick further trims sweep grids for CI-style runs.
	Quick bool
	// Workers caps the number of grid cells simulated concurrently
	// (0 = GOMAXPROCS, 1 = serial). Results are identical either way.
	Workers int
	// RangeLo/RangeHi/RangeTotal split an experiment's grid across
	// processes (active when RangeTotal > 0; see sweep.Options): only
	// this contiguous range of cells simulates, and the surviving cells
	// keep their index-derived seeds, so concatenating the table rows of
	// ranges that tile [0, RangeTotal) (results.Merge) is byte-identical
	// to a full run's grid rows (Experiment.Grid). The fleet worker
	// executes leased chunks through these, and the CLI's -shard i/n is
	// the range [i, i+1) of total n.
	RangeLo    int
	RangeHi    int
	RangeTotal int
	// Survey, when non-nil, enumerates instead of simulating: each grid
	// reports its cell count and cost hints to Survey and returns
	// without executing (see sweep.Options.Survey).
	Survey func(cells int, cost func(index int) float64)
	// Progress, when non-nil, receives per-experiment sweep progress.
	Progress func(done, total int)
	// OnlyCell, when > 0, simulates just that 1-based grid cell (the
	// index run queries report), keeping its full-grid seed — the
	// trace-mode hook. See sweep.Options.OnlyCell.
	OnlyCell int
	// Stats, when non-nil, accumulates engine counters (cells
	// completed, worker busy time) across the run's sweeps.
	Stats *sweep.Stats
}

// DefaultOptions returns quick settings with a fixed seed.
func DefaultOptions() Options { return Options{Seed: 42, Scale: 1.0} }

func (o Options) dur(base sim.Cycles) sim.Cycles { return o.Window(base) }

// Window scales a quick-default measurement window by Options.Scale.
func (o Options) Window(base sim.Cycles) sim.Cycles {
	if o.Scale <= 0 {
		return base
	}
	return sim.Cycles(float64(base) * o.Scale)
}

// SweepOptions lowers the experiment options onto the grid engine.
// Dynamically registered experiments (compiled scenarios) use it to run
// their grids under the same determinism and sharding contract as the
// built-in figures.
func (o Options) SweepOptions() sweep.Options {
	return sweep.Options{
		Workers:    o.Workers,
		Seed:       o.Seed,
		Scale:      o.Scale,
		Quick:      o.Quick,
		RangeLo:    o.RangeLo,
		RangeHi:    o.RangeHi,
		RangeTotal: o.RangeTotal,
		Survey:     o.Survey,
		OnlyCell:   o.OnlyCell,
		Progress:   o.Progress,
		Stats:      o.Stats,
	}
}

// Partial reports whether o runs less than the whole of each grid: a
// cell range short of [0, RangeTotal), one traced cell (OnlyCell), or
// a survey that simulates nothing. Its tables hold rows to merge, not
// results to reduce or compare.
func (o Options) Partial() bool {
	return o.Survey != nil || o.OnlyCell > 0 ||
		o.RangeTotal > 0 && (o.RangeLo > 0 || o.RangeHi < o.RangeTotal)
}

// grid starts an empty cell grid executing under these options.
func (o Options) grid() *sweep.Grid { return sweep.NewGrid(o.SweepOptions()) }

// machineSeeded returns the default machine configuration under the
// given per-cell seed.
func (o Options) machineSeeded(seed int64) machine.Config { return machine.DefaultConfig(seed) }

// Experiment is one reproducible table/figure.
type Experiment struct {
	// ID is the registry key (e.g. "fig11", "tbl2").
	ID string
	// Title describes the experiment.
	Title string
	// Paper summarizes what the paper reports, for side-by-side reading.
	Paper string
	// SpecHash is the content hash of the declarative spec a dynamic
	// experiment was compiled from (empty for the built-in figures). It
	// is recorded in results.Meta so diffs refuse to compare runs of
	// different spec revisions.
	SpecHash string
	// Axes, when non-nil, describes the sweep dimensions of a run under
	// the given options — nesting order (outermost first), typed
	// values, quick trimming applied — so results.Meta records exactly
	// what each table row's leading columns mean. Nil for the built-in
	// figures (whose grids are hand-coded); compiled scenarios fill it.
	Axes func(o Options) []sweep.Axis
	// Grid simulates the cells of the experiment's grids that o selects
	// and returns their rows, one or more per cell in cell order, so
	// the tables of cell ranges tiling a grid concatenate
	// (results.Merge) into the tables of the whole grid.
	Grid func(o Options) []*metrics.Table
	// Reduce, when non-nil, folds a whole grid's rows into the
	// published tables: the correlations, normalizations and averages
	// of Figures 12-15. It is pure, and runs once per run: in Run when
	// the options cover the whole grid, else after the merged parts
	// do (lockbench -merge, the fleet coordinator).
	Reduce func(tables []*metrics.Table) []*metrics.Table
}

// Run executes the experiment under o and returns its tables: the
// published ones when o covers the whole grid, the grid's unreduced
// rows when it runs only part of it (see Options.Partial).
func (e Experiment) Run(o Options) []*metrics.Table {
	if o.Partial() {
		return e.Grid(o)
	}
	return e.Fold(e.Grid(o))
}

// Fold applies Reduce, when the experiment has one, to the rows of a
// whole grid — what a merge path calls once its parts cover the grid.
func (e Experiment) Fold(tabs []*metrics.Table) []*metrics.Table {
	if e.Reduce == nil {
		return tabs
	}
	return e.Reduce(tabs)
}

var registry = map[string]Experiment{}
var order []string

func register(e Experiment) {
	if e.ID == "" {
		panic("experiments: experiment without an id")
	}
	if _, dup := registry[e.ID]; dup {
		panic("experiments: duplicate id " + e.ID)
	}
	registry[e.ID] = e
	order = append(order, e.ID)
}

// Register adds an experiment defined outside this package — Figures
// 13-15 and the compiled scenario specs, which package scenario
// registers at init — making it runnable through the same CLI, sweep
// and results-store paths as the built-in figures. It panics on an
// empty or duplicate id, mirroring the init-time checks of the static
// tables.
func Register(e Experiment) { register(e) }

// All returns every experiment in registration order.
func All() []Experiment {
	out := make([]Experiment, 0, len(order))
	for _, id := range order {
		out = append(out, registry[id])
	}
	return out
}

// IDs returns the sorted experiment ids.
func IDs() []string {
	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// ErrUnknown is wrapped by Find's error for an id the registry does
// not hold, so front ends can tell "no such experiment" (the service's
// 404) from a malformed request.
var ErrUnknown = errors.New("unknown experiment")

// Find returns the experiment with the given id.
func Find(id string) (Experiment, error) {
	e, ok := registry[id]
	if !ok {
		return Experiment{}, fmt.Errorf("experiments: %w %q (have %v)", ErrUnknown, id, IDs())
	}
	return e, nil
}
