package sweep

import "lockin/internal/metrics"

// Row is one metrics.Table row produced by a grid cell.
type Row []any

// Grid collects row-producing cells and streams their output into a
// metrics.Table. Cells execute in parallel under the engine's
// determinism contract; rows land in the table in registration order
// regardless of completion order, so the rendered table is byte-equal
// to a serial run.
type Grid struct {
	opts   Options
	cells  []func(Cell) []Row
	hints  []float64
	hinted bool
}

// NewGrid creates an empty grid executing under o.
func NewGrid(o Options) *Grid { return &Grid{opts: o} }

// Add registers one cell. fn receives the cell's index and derived
// seed and returns the table rows (zero or more) for that cell.
func (g *Grid) Add(fn func(c Cell) []Row) { g.AddHinted(0, fn) }

// AddHinted registers one cell with a relative cost hint — any
// monotone proxy for its simulation cost (thread count is the usual
// one). Under a parallel sweep the engine dispatches more expensive
// cells first within its reorder window, cutting the straggler tail on
// skewed grids; the fleet coordinator prices lease chunks with the
// same hints. Hints never change output bytes.
func (g *Grid) AddHinted(cost float64, fn func(c Cell) []Row) {
	g.cells = append(g.cells, fn)
	g.hints = append(g.hints, cost)
	if cost != 0 {
		g.hinted = true
	}
}

// Len returns the number of registered cells.
func (g *Grid) Len() int { return len(g.cells) }

// Into runs every registered cell and appends the produced rows to t
// in registration order, streaming each row as soon as its prefix of
// cells has completed. The engine's Cost comes from the grid's own
// hints alone (nil without any), never from the options it was built
// with.
func (g *Grid) Into(t *metrics.Table) {
	o := g.opts
	o.Cost = nil
	if g.hinted {
		hints := g.hints
		o.Cost = func(i int) float64 { return hints[i] }
	}
	Each(o, len(g.cells), func(c Cell) []Row {
		return g.cells[c.Index](c)
	}, func(_ int, rows []Row) {
		for _, r := range rows {
			t.AddRow(r...)
		}
	})
}
