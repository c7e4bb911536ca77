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

	"lockin/internal/metrics"
	"lockin/internal/sweep"
)

// Options tunes an experiment run. It is the sweep engine's own
// options: the grid builders read Scale (through Window) and Quick, the
// engine reads the rest, and the options reach every grid without a
// copy (see sweep.Options).
type Options = sweep.Options

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
