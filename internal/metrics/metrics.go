package metrics

import (
	"fmt"
	"math"
	"strings"

	"lockin/internal/power"
	"lockin/internal/sim"
)

// Measurement is the outcome of one benchmark run: operations completed
// over a virtual-time window with the energy spent in it.
type Measurement struct {
	Ops     uint64
	Window  sim.Cycles
	Energy  power.Energy
	BaseGHz float64
}

// Seconds converts the window to wall-clock seconds at the base clock.
func (m Measurement) Seconds() float64 {
	if m.BaseGHz == 0 {
		return 0
	}
	return float64(m.Window) / (m.BaseGHz * 1e9)
}

// Throughput returns operations per second.
func (m Measurement) Throughput() float64 {
	s := m.Seconds()
	if s == 0 {
		return 0
	}
	return float64(m.Ops) / s
}

// Power returns the average power breakdown over the window.
func (m Measurement) Power() power.Breakdown {
	return m.Energy.Power(m.Window, m.BaseGHz)
}

// TPP returns throughput per power — operations per Joule, the paper's
// energy-efficiency metric (higher is better).
func (m Measurement) TPP() float64 {
	j := m.Energy.Total()
	if j == 0 {
		return 0
	}
	return float64(m.Ops) / j
}

// EPO returns energy per operation in Joules (1/TPP).
func (m Measurement) EPO() float64 {
	if m.Ops == 0 {
		return 0
	}
	return m.Energy.Total() / float64(m.Ops)
}

// Pearson returns the linear correlation coefficient of two equal-length
// samples; 0 when undefined.
func Pearson(xs, ys []float64) float64 {
	n := len(xs)
	if n != len(ys) || n < 2 {
		return 0
	}
	var sx, sy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
	}
	mx, my := sx/float64(n), sy/float64(n)
	var cov, vx, vy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		cov += dx * dy
		vx += dx * dx
		vy += dy * dy
	}
	if vx == 0 || vy == 0 {
		return 0
	}
	return cov / math.Sqrt(vx*vy)
}

// Jain returns Jain's fairness index (Σx)² / (n·Σx²) of the samples:
// 1 when all are equal, 1/n when one holds everything, and 0 when
// there are none or all are 0.
func Jain(xs []float64) float64 {
	var sum, sumSq float64
	for _, x := range xs {
		sum += x
		sumSq += x * x
	}
	if sumSq == 0 {
		return 0
	}
	return sum * sum / (float64(len(xs)) * sumSq)
}

// Normalize divides each sample by the maximum of the slice (0-safe).
func Normalize(xs []float64) []float64 {
	max := 0.0
	for _, x := range xs {
		if x > max {
			max = x
		}
	}
	out := make([]float64, len(xs))
	if max == 0 {
		return out
	}
	for i, x := range xs {
		out[i] = x / max
	}
	return out
}

// Table renders aligned text tables for experiment output. Cells are
// typed (Value) so downstream consumers — the results store, baseline
// diffing, regression gates — can compare the measured quantities
// instead of parsing the rendered strings.
type Table struct {
	Title  string
	Header []string
	cells  [][]Value
	Notes  []string
}

// NewTable creates a table with the given title and column header.
func NewTable(title string, header ...string) *Table {
	return &Table{Title: title, Header: header}
}

// AddRow appends a row; values are formatted with %v, floats with 4
// significant digits. Each argument is retained as a typed Value
// alongside its rendering (see ValueOf).
func (t *Table) AddRow(cells ...any) {
	row := make([]Value, len(cells))
	for i, c := range cells {
		row[i] = ValueOf(c)
	}
	t.cells = append(t.cells, row)
}

// AddValues appends a row of already-typed cells.
func (t *Table) AddValues(row []Value) { t.cells = append(t.cells, row) }

// AddNote appends a free-text footnote.
func (t *Table) AddNote(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// NumRows returns the number of data rows.
func (t *Table) NumRows() int { return len(t.cells) }

// Rows returns the rendered cells (for tests).
func (t *Table) Rows() [][]string {
	out := make([][]string, len(t.cells))
	for i, row := range t.cells {
		r := make([]string, len(row))
		for j, c := range row {
			r[j] = c.Text()
		}
		out[i] = r
	}
	return out
}

// Cells returns the typed rows.
func (t *Table) Cells() [][]Value { return t.cells }

func formatFloat(v float64) string {
	switch {
	case v == 0:
		return "0"
	case math.Abs(v) >= 10000 || math.Abs(v) < 0.001:
		return fmt.Sprintf("%.3g", v)
	case math.Abs(v) >= 100:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.3f", v)
	}
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.Title)
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.cells {
		for i, c := range r {
			if i < len(widths) && len(c.Text()) > widths[i] {
				widths[i] = len(c.Text())
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			if i < len(widths) {
				fmt.Fprintf(&b, "%-*s", widths[i], c)
			} else {
				b.WriteString(c)
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, r := range t.cells {
		row := make([]string, len(r))
		for i, c := range r {
			row[i] = c.Text()
		}
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "# %s\n", n)
	}
	return b.String()
}
