package results

import (
	"strings"
	"testing"

	"lockin/internal/metrics"
	"lockin/internal/sweep"
)

// queryRun builds a synthetic 2-axis run — read[90,50] × lock[MUTEX,
// TICKET], rows enumerating read-major like a real scenario table —
// small enough to hand-check every query result.
func queryRun() *Run {
	t := metrics.NewTable("q", "threads", "cs(cycles)", "lock", "read%", "thr(Kacq/s)")
	t.AddRow(4, int64(100), "MUTEX", 90, 10.0)
	t.AddRow(4, int64(100), "TICKET", 90, 20.0)
	t.AddRow(4, int64(100), "MUTEX", 50, 30.0)
	t.AddRow(4, int64(100), "TICKET", 50, 40.0)
	t.AddNote("original note")
	read := sweep.NewAxis("read", 90, 50)
	read.Column = "read%" // extra axes record their column header
	return &Run{
		Meta: Meta{
			Experiment: "scenario:q",
			Axes: []sweep.Axis{
				read,
				sweep.NewAxis("lock", "MUTEX", "TICKET"),
			},
		},
		Tables: []*metrics.Table{t},
	}
}

func TestSliceKeepsPlaneAndDropsAxisColumn(t *testing.T) {
	r := queryRun()
	got, err := Slice(r, []Fix{{Axis: "read", Value: "90"}})
	if err != nil {
		t.Fatal(err)
	}
	tab := got.Tables[0]
	wantHeader := []string{"threads", "cs(cycles)", "lock", "thr(Kacq/s)"}
	if strings.Join(tab.Header, "|") != strings.Join(wantHeader, "|") {
		t.Fatalf("sliced header = %v, want %v (read%% column dropped)", tab.Header, wantHeader)
	}
	rows := tab.Rows()
	if len(rows) != 2 {
		t.Fatalf("sliced plane has %d rows, want 2", len(rows))
	}
	if rows[0][2] != "MUTEX" || rows[1][2] != "TICKET" || rows[0][3] != "10.000" || rows[1][3] != "20.000" {
		t.Fatalf("sliced rows = %v", rows)
	}
	if len(got.Meta.Axes) != 1 || got.Meta.Axes[0].Name != "lock" {
		t.Fatalf("sliced axes = %+v, want just lock", got.Meta.Axes)
	}
	last := tab.Notes[len(tab.Notes)-1]
	if last != "slice: read=90" {
		t.Fatalf("slice note = %q", last)
	}
	// The input run is untouched.
	if r.Tables[0].NumRows() != 4 || len(r.Tables[0].Header) != 5 || len(r.Meta.Axes) != 2 {
		t.Fatal("Slice modified its input run")
	}
}

func TestSliceSingleCellPlane(t *testing.T) {
	got, err := Slice(queryRun(), []Fix{{Axis: "read", Value: "50"}, {Axis: "lock", Value: "TICKET"}})
	if err != nil {
		t.Fatal(err)
	}
	if got.Meta.Axes != nil {
		t.Fatalf("fully sliced run still has axes: %+v", got.Meta.Axes)
	}
	rows := got.Tables[0].Rows()
	if len(rows) != 1 || rows[0][3] != "40.000" {
		t.Fatalf("single-cell plane = %v, want the (50, TICKET) cell", rows)
	}
}

func TestSliceMatchesValuesNumerically(t *testing.T) {
	r := queryRun()
	r.Meta.Axes[0] = sweep.NewAxis("read", 90.0, 50.0) // floats render "90.000"
	got, err := Slice(r, []Fix{{Axis: "read", Value: "90"}})
	if err != nil {
		t.Fatalf("numeric match failed: %v", err)
	}
	// The replaced axis has no Column field, as in runs stored before
	// the field existed: the frozen legacy name→column fallback must
	// still drop the read% column.
	for _, h := range got.Tables[0].Header {
		if h == "read%" {
			t.Fatalf("legacy column fallback did not drop read%%: %v", got.Tables[0].Header)
		}
	}
}

// TestQueriedRunSavesUnderDistinctName: saving a sliced/projected run
// into the store directory holding the full baseline must never
// overwrite it — the query rides into Meta.Query and the file name.
func TestQueriedRunSavesUnderDistinctName(t *testing.T) {
	dir := t.TempDir()
	full := queryRun()
	fullPath, err := Save(dir, full)
	if err != nil {
		t.Fatal(err)
	}
	sliced, err := Slice(full, []Fix{{Axis: "read", Value: "90"}})
	if err != nil {
		t.Fatal(err)
	}
	if sliced.Meta.Query != "slice read=90" {
		t.Fatalf("sliced Meta.Query = %q", sliced.Meta.Query)
	}
	proj, err := Project(sliced, nil)
	if err != nil {
		t.Fatal(err)
	}
	if proj.Meta.Query != "slice read=90; project (none)" {
		t.Fatalf("chained Meta.Query = %q", proj.Meta.Query)
	}
	slicedPath, err := Save(dir, sliced)
	if err != nil {
		t.Fatal(err)
	}
	if slicedPath == fullPath {
		t.Fatalf("sliced run saved over the full baseline at %s", fullPath)
	}
	reFull, err := Load(fullPath)
	if err != nil {
		t.Fatal(err)
	}
	if reFull.Tables[0].NumRows() != 4 {
		t.Fatalf("full baseline corrupted: %d rows", reFull.Tables[0].NumRows())
	}
	reSliced, err := Load(slicedPath)
	if err != nil {
		t.Fatal(err)
	}
	if reSliced.Meta.Query != "slice read=90" || reSliced.Tables[0].NumRows() != 2 {
		t.Fatalf("reloaded sliced run mangled: query %q, %d rows",
			reSliced.Meta.Query, reSliced.Tables[0].NumRows())
	}
}

func TestSliceErrors(t *testing.T) {
	shard := queryRun()
	shard.Meta.Range = &CellRange{Lo: 1, Hi: 2, Total: 2}
	noAxes := queryRun()
	noAxes.Meta.Axes = nil
	short := queryRun()
	short.Tables[0] = metrics.NewTable("q", "lock")
	empty := queryRun()
	empty.Tables = nil

	cases := []struct {
		name  string
		run   *Run
		fixes []Fix
		want  string // substring of the error
	}{
		{"unknown axis", queryRun(), []Fix{{Axis: "skew", Value: "1"}}, "run sweeps: read, lock"},
		{"value not on axis", queryRun(), []Fix{{Axis: "read", Value: "91"}}, "read[90/50]"},
		{"duplicate fix", queryRun(), []Fix{{Axis: "read", Value: "90"}, {Axis: "read", Value: "50"}}, "fixed twice"},
		{"no fixes", queryRun(), nil, "at least one"},
		{"no axis metadata", noAxes, []Fix{{Axis: "read", Value: "90"}}, "no axis metadata"},
		{"sharded run", shard, []Fix{{Axis: "read", Value: "90"}}, "merge the ranges"},
		{"row count mismatch", short, []Fix{{Axis: "read", Value: "90"}}, "has 0 rows"},
		{"no tables", empty, []Fix{{Axis: "read", Value: "90"}}, "no tables"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Slice(c.run, c.fixes)
			if err == nil {
				t.Fatalf("Slice succeeded, want error containing %q", c.want)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q does not mention %q", err, c.want)
			}
		})
	}
}

func TestProjectAggregatesDroppedAxes(t *testing.T) {
	got, err := Project(queryRun(), []string{"lock"})
	if err != nil {
		t.Fatal(err)
	}
	tab := got.Tables[0]
	wantHeader := []string{"threads", "cs(cycles)", "lock", "thr(Kacq/s)"}
	if strings.Join(tab.Header, "|") != strings.Join(wantHeader, "|") {
		t.Fatalf("projected header = %v, want %v", tab.Header, wantHeader)
	}
	rows := tab.Rows()
	if len(rows) != 2 {
		t.Fatalf("projection onto lock has %d rows, want 2", len(rows))
	}
	// MUTEX group = rows (90,MUTEX)+(50,MUTEX): thr mean (10+30)/2.
	if rows[0][2] != "MUTEX" || rows[0][3] != "20.000" {
		t.Fatalf("MUTEX row = %v, want mean thr 20.000", rows[0])
	}
	if rows[1][2] != "TICKET" || rows[1][3] != "30.000" {
		t.Fatalf("TICKET row = %v, want mean thr 30.000", rows[1])
	}
	if len(got.Meta.Axes) != 1 || got.Meta.Axes[0].Name != "lock" {
		t.Fatalf("projected axes = %+v", got.Meta.Axes)
	}
}

func TestProjectAwayAllAxes(t *testing.T) {
	got, err := Project(queryRun(), nil)
	if err != nil {
		t.Fatal(err)
	}
	tab := got.Tables[0]
	rows := tab.Rows()
	if len(rows) != 1 {
		t.Fatalf("full projection has %d rows, want 1", len(rows))
	}
	// lock varies within the single group and is text → dropped; thr
	// averages over all four cells.
	wantHeader := []string{"threads", "cs(cycles)", "thr(Kacq/s)"}
	if strings.Join(tab.Header, "|") != strings.Join(wantHeader, "|") {
		t.Fatalf("header = %v, want %v (lock and read%% dropped)", tab.Header, wantHeader)
	}
	if rows[0][2] != "25.000" {
		t.Fatalf("grand mean thr = %v, want 25.000", rows[0][2])
	}
	if got.Meta.Axes != nil {
		t.Fatalf("fully projected run still has axes: %+v", got.Meta.Axes)
	}
	dropNote := tab.Notes[len(tab.Notes)-1]
	if !strings.Contains(dropNote, "lock") {
		t.Fatalf("dropped-column note %q does not mention lock", dropNote)
	}
}

func TestProjectIdentityCanonicalizesOrder(t *testing.T) {
	// Keeping every axis — in any argument order — reproduces the rows
	// unchanged: each group holds one cell, so every column is constant.
	src := queryRun()
	got, err := Project(src, []string{"lock", "read"})
	if err != nil {
		t.Fatal(err)
	}
	if !sweep.AxesEqual(got.Meta.Axes, src.Meta.Axes) {
		t.Fatalf("identity projection reordered axes: %+v", got.Meta.Axes)
	}
	a, b := got.Tables[0].Rows(), src.Tables[0].Rows()
	if len(a) != len(b) {
		t.Fatalf("identity projection has %d rows, want %d", len(a), len(b))
	}
	for i := range a {
		if strings.Join(a[i], "|") != strings.Join(b[i], "|") {
			t.Fatalf("row %d changed: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestProjectErrors(t *testing.T) {
	if _, err := Project(queryRun(), []string{"skew"}); err == nil || !strings.Contains(err.Error(), "read, lock") {
		t.Fatalf("unknown axis error = %v, want the valid axis list", err)
	}
	if _, err := Project(queryRun(), []string{"lock", "lock"}); err == nil || !strings.Contains(err.Error(), "twice") {
		t.Fatalf("duplicate axis error = %v", err)
	}
}

// TestValidateQuery: the pre-simulation pre-flight must agree with
// what Slice/Project later accept — including projecting onto an axis
// the slice already fixed (invalid: project sees post-slice axes).
func TestValidateQuery(t *testing.T) {
	axes := queryRun().Meta.Axes
	cases := []struct {
		name  string
		fixes []Fix
		keep  []string
		want  string // "" = valid
	}{
		{"no query", nil, nil, ""},
		{"valid slice", []Fix{{Axis: "read", Value: "90"}}, nil, ""},
		{"valid slice+project", []Fix{{Axis: "read", Value: "90"}}, []string{"lock"}, ""},
		{"unknown slice axis", []Fix{{Axis: "skew", Value: "1"}}, nil, "unknown axis"},
		{"value not on axis", []Fix{{Axis: "read", Value: "91"}}, nil, "no value"},
		{"unknown project axis", nil, []string{"skew"}, "unknown axis"},
		{"project a sliced-away axis", []Fix{{Axis: "read", Value: "90"}}, []string{"read"}, `unknown axis "read"`},
		{"duplicate keep", nil, []string{"lock", "lock"}, "twice"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := ValidateQuery(axes, c.fixes, c.keep)
			if c.want == "" {
				if err != nil {
					t.Fatalf("valid query rejected: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %v, want substring %q", err, c.want)
			}
		})
	}
	if err := ValidateQuery(nil, []Fix{{Axis: "read", Value: "90"}}, nil); err == nil {
		t.Fatal("query against axis-less metadata accepted")
	}
}

func TestComparePlanes(t *testing.T) {
	a, b := queryRun(), queryRun()
	// Cosmetic differences are ignored by design.
	b.Tables[0].Title = "renamed"
	b.Tables[0].AddNote("extra note")
	b.Meta.SpecHash = "feedfacecafe"
	rep, err := ComparePlanes(a, b, Tolerance{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Empty() {
		t.Fatalf("identical planes differ:\n%s", rep)
	}

	// A moved cell is reported.
	c := queryRun()
	c.Tables[0].Cells()[1][4] = metrics.FloatValue(21)
	rep, err = ComparePlanes(a, c, Tolerance{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.NumDiffs() != 1 || rep.Tables[0].Cells[0].Column != "thr(Kacq/s)" {
		t.Fatalf("diff report = %s", rep)
	}
	// ... and excused by a tolerance.
	rep, err = ComparePlanes(a, c, Tolerance{Default: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Empty() {
		t.Fatalf("tolerance ignored:\n%s", rep)
	}

	// Mismatched axis metadata is refused, not misreported.
	d := queryRun()
	d.Meta.Axes = d.Meta.Axes[1:]
	if _, err := ComparePlanes(a, d, Tolerance{}); err == nil || !strings.Contains(err.Error(), "same plane") {
		t.Fatalf("axis mismatch error = %v", err)
	}
	e := queryRun()
	e.Tables = append(e.Tables, metrics.NewTable("extra"))
	if _, err := ComparePlanes(a, e, Tolerance{}); err == nil || !strings.Contains(err.Error(), "tables") {
		t.Fatalf("table count mismatch error = %v", err)
	}
}

// TestSliceThenCompareLegacyShape is the query layer's fold-inversion
// contract in miniature: slicing the outermost axis' first value out
// of a folded run must produce a run plane-equal to the pre-fold
// single-axis run (same lock axis, same cells, no read%% column).
func TestSliceThenCompareLegacyShape(t *testing.T) {
	legacy := &Run{
		Meta: Meta{Experiment: "scenario:q_legacy", Axes: []sweep.Axis{sweep.NewAxis("lock", "MUTEX", "TICKET")}},
	}
	lt := metrics.NewTable("legacy", "threads", "cs(cycles)", "lock", "thr(Kacq/s)")
	lt.AddRow(4, int64(100), "MUTEX", 10.0)
	lt.AddRow(4, int64(100), "TICKET", 20.0)
	lt.AddNote("a completely different note")
	legacy.Tables = []*metrics.Table{lt}

	sliced, err := Slice(queryRun(), []Fix{{Axis: "read", Value: "90"}})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := ComparePlanes(legacy, sliced, Tolerance{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Empty() {
		t.Fatalf("sliced plane differs from the legacy-shaped run:\n%s", rep)
	}
}
