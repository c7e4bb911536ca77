package results

import (
	"fmt"
	"strconv"
	"strings"

	"lockin/internal/metrics"
	"lockin/internal/sweep"
)

// This file is the axis-aware query layer over stored runs. A
// multi-axis run records its sweep dimensions in Meta.Axes (nesting
// order, typed values), so its table rows enumerate as the cross
// product of those axes — which makes three structural queries
// well-defined without re-simulating anything:
//
//   - Slice fixes one or more axes to values and keeps only that
//     plane's rows (e.g. the read=90 plane of a read × lock run).
//   - Project collapses the run onto a chosen axis subset, aggregating
//     the cells that fold together (mean of the numeric columns).
//   - ComparePlanes diffs two runs that sweep the same axes — e.g. a
//     sliced plane of a folded spec against the retired single-axis
//     spec it absorbed — ignoring cosmetic differences (title, notes,
//     spec hash) that necessarily differ across experiments.

// Fix pins one named axis to one of its values, both given as strings
// (the CLI's -slice axis=value syntax). The value matches an axis
// value either by its exact rendered text or numerically.
type Fix struct {
	Axis  string
	Value string
}

// legacyAxisColumns maps the axis names of runs stored BEFORE
// sweep.Axis carried its Column field to their column headers. FROZEN:
// new axes record their column in the axis metadata itself (the
// scenario compiler writes it from the same descriptor that builds the
// table header); this table only keeps old stored baselines sliceable
// and must not grow.
var legacyAxisColumns = map[string]string{
	"oversub": "oversub",
	"read":    "read%",
	"skew":    "skew",
}

// axisColumn resolves the table column that exists only because the
// axis was declared — the column Slice/Project drop when the axis is
// queried away, restoring the exact header a spec without the axis
// renders (the inverse of "fold a spec under a new axis"). The classic
// threads/cs/lock columns render whether or not a matching axis is
// declared (and the threads column holds the cell's TOTAL thread
// count, not the axis value), so such axes report no column.
func axisColumn(a sweep.Axis) string {
	if a.Column != "" {
		return a.Column
	}
	return legacyAxisColumns[a.Name]
}

// axesDesc renders an axis list for error messages.
func axesDesc(axes []sweep.Axis) string {
	if len(axes) == 0 {
		return "(none)"
	}
	parts := make([]string, len(axes))
	for i, a := range axes {
		vals := make([]string, len(a.Values))
		for j, v := range a.Values {
			vals[j] = v.Text()
		}
		parts[i] = fmt.Sprintf("%s[%s]", a.Name, strings.Join(vals, "/"))
	}
	return strings.Join(parts, " × ")
}

// axisNames returns the names of an axis list, joined for messages.
func axisNames(axes []sweep.Axis) string {
	if len(axes) == 0 {
		return "(none)"
	}
	names := make([]string, len(axes))
	for i, a := range axes {
		names[i] = a.Name
	}
	return strings.Join(names, ", ")
}

// findValue resolves a fix's value string on an axis: exact rendered
// text first, then numeric equality (so "1.1" matches a float cell
// rendered "1.100").
func findValue(a sweep.Axis, s string) (int, error) {
	for i, v := range a.Values {
		if v.Text() == s {
			return i, nil
		}
	}
	if f, err := strconv.ParseFloat(s, 64); err == nil {
		for i, v := range a.Values {
			if n, ok := v.Num(); ok && n == f {
				return i, nil
			}
		}
	}
	return 0, fmt.Errorf("results: axis %s has no value %q (values: %s)",
		a.Name, s, axesDesc([]sweep.Axis{a}))
}

// ValidateQuery checks that a slice's fixes and a projection's kept
// axes resolve against the given axis metadata — the cheap pre-flight
// a CLI runs BEFORE an expensive simulation whose output the query
// will transform, so a typo'd axis or value is rejected in
// milliseconds instead of discarding hours of completed simulation.
// The projection validates against the post-slice axes, matching the
// slice-then-project order the query pipeline applies.
func ValidateQuery(axes []sweep.Axis, fixes []Fix, keep []string) error {
	if len(fixes) == 0 && len(keep) == 0 {
		return nil
	}
	if len(axes) == 0 {
		return fmt.Errorf("results: run records no axis metadata — slice/project need a multi-axis run (scenario experiments record their axes)")
	}
	pins, err := resolveFixes(axes, fixes)
	if err != nil {
		return err
	}
	var remaining []sweep.Axis
	for i, a := range axes {
		if _, fixed := pins[i]; !fixed {
			remaining = append(remaining, a)
		}
	}
	sub := sweep.NewSpace(remaining...)
	seen := make(map[string]bool, len(keep))
	for _, name := range keep {
		if sub.AxisIndex(name) < 0 {
			return fmt.Errorf("results: unknown axis %q (run sweeps: %s)", name, axisNames(remaining))
		}
		if seen[name] {
			return fmt.Errorf("results: axis %q kept twice", name)
		}
		seen[name] = true
	}
	return nil
}

// resolveFixes maps fixes onto axis positions and value indices.
func resolveFixes(axes []sweep.Axis, fixes []Fix) (map[int]int, error) {
	space := sweep.NewSpace(axes...)
	pins := make(map[int]int, len(fixes))
	for _, f := range fixes {
		pos := space.AxisIndex(f.Axis)
		if pos < 0 {
			return nil, fmt.Errorf("results: unknown axis %q (run sweeps: %s)", f.Axis, axisNames(axes))
		}
		if _, dup := pins[pos]; dup {
			return nil, fmt.Errorf("results: axis %q fixed twice", f.Axis)
		}
		vi, err := findValue(axes[pos], f.Value)
		if err != nil {
			return nil, err
		}
		pins[pos] = vi
	}
	return pins, nil
}

// checkSliceable verifies a run carries usable axis metadata and that
// every table's row count matches the axis space, so row index ↔ cell
// index mapping is sound.
func checkSliceable(r *Run, space sweep.Space) error {
	if len(r.Meta.Axes) == 0 {
		return fmt.Errorf("results: run of %s records no axis metadata — slice/project need a multi-axis run (scenario experiments record their axes)", r.Meta.Experiment)
	}
	if r.Meta.Range != nil {
		return fmt.Errorf("results: run of %s covers only cells %s — merge the ranges first, then query the full run",
			r.Meta.Experiment, r.Meta.Range)
	}
	if space.Len() == 0 {
		return fmt.Errorf("results: run of %s declares an axis with no values (%s) — nothing to query",
			r.Meta.Experiment, axesDesc(r.Meta.Axes))
	}
	if len(r.Tables) == 0 {
		return fmt.Errorf("results: run of %s has no tables — nothing to query", r.Meta.Experiment)
	}
	for _, t := range r.Tables {
		if t.NumRows() != space.Len() {
			return fmt.Errorf("results: table %q has %d rows but the axis space %s has %d cells — rows no longer enumerate the axes",
				t.Title, t.NumRows(), axesDesc(r.Meta.Axes), space.Len())
		}
	}
	return nil
}

// droppedAxisColumns returns the header-name set of the axis-value
// columns that vanish when the given axes are queried away.
func droppedAxisColumns(axes []sweep.Axis, gone map[int]bool) map[string]bool {
	drop := map[string]bool{}
	for i, a := range axes {
		if gone[i] {
			if col := axisColumn(a); col != "" {
				drop[col] = true
			}
		}
	}
	return drop
}

// keepColumns returns the column indices of t whose header is not in
// drop (columns past the header are always kept).
func keepColumns(t *metrics.Table, drop map[string]bool) []int {
	var keep []int
	width := len(t.Header)
	for _, row := range t.Cells() {
		if len(row) > width {
			width = len(row)
		}
	}
	for j := 0; j < width; j++ {
		if j < len(t.Header) && drop[t.Header[j]] {
			continue
		}
		keep = append(keep, j)
	}
	return keep
}

// Slice returns a new run holding only the rows of the fixed plane:
// each fix pins one axis to one of its values, the matching rows keep
// their order, the fixed axes leave Meta.Axes, and axis-value columns
// that existed only for the fixed axes (read%, oversub, skew) are
// dropped — so slicing the read=90 plane of a folded spec reproduces
// the table a spec without the read axis renders. The input run is not
// modified. A note on every table records the slice.
func Slice(r *Run, fixes []Fix) (*Run, error) {
	if len(fixes) == 0 {
		return nil, fmt.Errorf("results: slice needs at least one axis=value fix")
	}
	space := sweep.NewSpace(r.Meta.Axes...)
	if err := checkSliceable(r, space); err != nil {
		return nil, err
	}
	pins, err := resolveFixes(r.Meta.Axes, fixes)
	if err != nil {
		return nil, err
	}
	sub, plane := space.Fix(pins)

	gone := make(map[int]bool, len(pins))
	for pos := range pins {
		gone[pos] = true
	}
	dropCols := droppedAxisColumns(r.Meta.Axes, gone)
	noteParts := make([]string, 0, len(fixes))
	for pos, a := range r.Meta.Axes {
		if vi, ok := pins[pos]; ok {
			noteParts = append(noteParts, fmt.Sprintf("%s=%s", a.Name, a.Values[vi].Text()))
		}
	}
	note := strings.Join(noteParts, ", ")

	out := &Run{Meta: r.Meta}
	out.Meta.Axes = sub.Axes()
	if len(out.Meta.Axes) == 0 {
		out.Meta.Axes = nil
	}
	out.Meta.Query = appendQuery(r.Meta.Query, "slice "+note)
	for _, t := range r.Tables {
		keep := keepColumns(t, dropCols)
		nt := metrics.NewTable(t.Title, filterStrings(t.Header, keep)...)
		rows := t.Cells()
		for _, ci := range plane {
			nt.AddValues(filterValues(rows[ci], keep))
		}
		for _, n := range t.Notes {
			nt.AddNote("%s", n)
		}
		nt.AddNote("slice: %s", note)
		out.Tables = append(out.Tables, nt)
	}
	return out, nil
}

// Project collapses a run onto the named axis subset: the kept axes
// (canonicalized to their nesting order) enumerate the output rows,
// and every group of cells that differs only on the dropped axes folds
// into one row. Columns fold per group: a column constant within every
// group keeps its value, a varying numeric column becomes its
// arithmetic mean (same header), and a varying non-numeric column is
// dropped (recorded in a note). Axis-value columns of dropped axes
// (read%, oversub, skew) are dropped outright. keep may be empty:
// projecting away every axis folds the whole table into one row. The
// input run is not modified.
func Project(r *Run, keep []string) (*Run, error) {
	space := sweep.NewSpace(r.Meta.Axes...)
	if err := checkSliceable(r, space); err != nil {
		return nil, err
	}
	keptPos := map[int]bool{}
	for _, name := range keep {
		pos := space.AxisIndex(name)
		if pos < 0 {
			return nil, fmt.Errorf("results: unknown axis %q (run sweeps: %s)", name, axisNames(r.Meta.Axes))
		}
		if keptPos[pos] {
			return nil, fmt.Errorf("results: axis %q kept twice", name)
		}
		keptPos[pos] = true
	}

	var keptAxes []sweep.Axis
	gone := map[int]bool{}
	for i, a := range r.Meta.Axes {
		if keptPos[i] {
			keptAxes = append(keptAxes, a)
		} else {
			gone[i] = true
		}
	}
	sub := sweep.NewSpace(keptAxes...)
	groupCount := 1
	for _, a := range keptAxes {
		groupCount *= a.Len()
	}
	groups := make([][]int, groupCount)
	for i := 0; i < space.Len(); i++ {
		co := space.Coords(i)
		kc := make([]int, 0, len(keptAxes))
		for p := 0; p < len(r.Meta.Axes); p++ {
			if keptPos[p] {
				kc = append(kc, co[p])
			}
		}
		j := sub.Index(kc...)
		groups[j] = append(groups[j], i)
	}

	dropAxisCols := droppedAxisColumns(r.Meta.Axes, gone)
	cellsPerRow := 1
	if groupCount > 0 && space.Len() > 0 {
		cellsPerRow = space.Len() / groupCount
	}

	out := &Run{Meta: r.Meta}
	out.Meta.Axes = keptAxes
	out.Meta.Query = appendQuery(r.Meta.Query, "project "+axisNames(keptAxes))
	for _, t := range r.Tables {
		nt, dropped := projectTable(t, groups, keepColumns(t, dropAxisCols))
		for _, n := range t.Notes {
			nt.AddNote("%s", n)
		}
		names := axisNames(keptAxes)
		nt.AddNote("project: kept axes %s (mean over %d cells per row)", names, cellsPerRow)
		if len(dropped) > 0 {
			nt.AddNote("project: dropped non-aggregatable columns: %s", strings.Join(dropped, ", "))
		}
		out.Tables = append(out.Tables, nt)
	}
	return out, nil
}

// projectTable folds one table's rows by group over the kept columns.
// A kept column is copied when constant within every group, averaged
// when numeric, and dropped otherwise (returned for the caller's note).
func projectTable(t *metrics.Table, groups [][]int, keep []int) (*metrics.Table, []string) {
	rows := t.Cells()
	cell := func(ri, cj int) metrics.Value {
		if cj < len(rows[ri]) {
			return rows[ri][cj]
		}
		return metrics.Value{}
	}
	type plan int
	const (
		planConst plan = iota
		planMean
		planDrop
	)
	plans := make([]plan, len(keep))
	var dropped []string
	var header []string
	for pi, cj := range keep {
		constant, numeric := true, true
		for _, g := range groups {
			for _, ri := range g {
				v := cell(ri, cj)
				if !v.Equal(cell(g[0], cj)) {
					constant = false
				}
				if _, ok := v.Num(); !ok {
					numeric = false
				}
			}
		}
		name := fmt.Sprintf("col%d", cj)
		if cj < len(t.Header) {
			name = t.Header[cj]
		}
		switch {
		case constant:
			plans[pi] = planConst
		case numeric:
			plans[pi] = planMean
		default:
			plans[pi] = planDrop
			dropped = append(dropped, name)
			continue
		}
		header = append(header, name)
	}
	nt := metrics.NewTable(t.Title, header...)
	for _, g := range groups {
		var row []metrics.Value
		for pi, cj := range keep {
			switch plans[pi] {
			case planConst:
				row = append(row, cell(g[0], cj))
			case planMean:
				sum := 0.0
				for _, ri := range g {
					n, _ := cell(ri, cj).Num()
					sum += n
				}
				row = append(row, metrics.FloatValue(sum/float64(len(g))))
			}
		}
		nt.AddValues(row)
	}
	return nt, dropped
}

// ComparePlanes diffs two runs that sweep the same plane — typically a
// sliced multi-axis run against the equivalent single-axis run, or two
// slices of different baselines. Axis metadata must match exactly
// (names, values, nesting); mismatched axes mean the rows enumerate
// different grids, so the comparison is refused. Tables pair up
// positionally and compare header and cells under the tolerance;
// titles, notes and spec hashes are ignored by design — two different
// experiments measuring the same plane name and annotate it
// differently.
func ComparePlanes(base, cur *Run, tol Tolerance) (*Report, error) {
	if !sweep.AxesEqual(base.Meta.Axes, cur.Meta.Axes) {
		return nil, fmt.Errorf("results: refusing to diff planes: baseline sweeps %s, current run sweeps %s — slice/project both runs onto the same plane first",
			axesDesc(base.Meta.Axes), axesDesc(cur.Meta.Axes))
	}
	if len(base.Tables) != len(cur.Tables) {
		return nil, fmt.Errorf("results: refusing to diff planes: baseline has %d tables, current run has %d",
			len(base.Tables), len(cur.Tables))
	}
	rep := &Report{}
	for ti, bt := range base.Tables {
		ct := cur.Tables[ti]
		title := bt.Title
		if ct.Title != bt.Title {
			title = bt.Title + " / " + ct.Title
		}
		d := TableDiff{Title: title}
		d.HeaderDiff = !equalStrings(bt.Header, ct.Header)
		diffRowsInto(&d, bt, ct, tol)
		if !d.empty() {
			rep.Tables = append(rep.Tables, d)
		}
	}
	return rep, nil
}

// appendQuery composes the Meta.Query provenance of chained queries.
func appendQuery(prev, next string) string {
	if prev == "" {
		return next
	}
	return prev + "; " + next
}

func filterStrings(s []string, keep []int) []string {
	out := make([]string, 0, len(keep))
	for _, j := range keep {
		if j < len(s) {
			out = append(out, s[j])
		}
	}
	return out
}

func filterValues(row []metrics.Value, keep []int) []metrics.Value {
	out := make([]metrics.Value, 0, len(keep))
	for _, j := range keep {
		if j < len(row) {
			out = append(out, row[j])
		}
	}
	return out
}
