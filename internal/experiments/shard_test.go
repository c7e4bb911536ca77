package experiments

import (
	"strings"
	"testing"

	"lockin/internal/results"
)

// shardedRun executes one experiment as a results.Run under the given
// options, recording their cell range when they carry one.
func shardedRun(t *testing.T, id string, o Options) *results.Run {
	t.Helper()
	e, err := Find(id)
	if err != nil {
		t.Fatalf("find %s: %v", id, err)
	}
	m := results.Meta{
		Experiment: id, Seed: o.Seed, Scale: o.Scale, Quick: o.Quick, Version: "test",
	}
	if o.RangeTotal > 0 {
		m.Range = &results.CellRange{Lo: o.RangeLo, Hi: o.RangeHi, Total: o.RangeTotal}
	}
	return &results.Run{Meta: m, Tables: e.Run(o)}
}

// TestShardUnionMatchesUnsharded is the acceptance test of multi-process
// sharding on real experiments: merging the cell-range runs of a grid
// and reducing the merged rows (Experiment.Fold) must reproduce the
// unsharded tables byte-for-byte (cells are skipped, not re-seeded).
// fig10 covers the baseline-inside-cell grid, tbl2 the plain
// one-row-per-cell grid, fig10_tail the percentile grid; fig12-fig15
// reduce their rows only after the merge. The 3-way split cuts quick
// fig15 inside a configuration's MUTEX/TICKET/MUTEXEE triple, and the
// 2-way split cuts quick fig13 and fig14 between Memcached's MUTEX and
// TICKET cells.
func TestShardUnionMatchesUnsharded(t *testing.T) {
	for _, id := range []string{"fig10", "tbl2", "fig10_tail", "fig12", "fig13", "fig14", "fig15"} {
		t.Run(id, func(t *testing.T) {
			e, err := Find(id)
			if err != nil {
				t.Fatal(err)
			}
			o := Options{Seed: 42, Scale: 0.25, Quick: true, Workers: 4}
			full := shardedRun(t, id, o)
			for _, n := range []int{2, 3} {
				var shards []*results.Run
				for s := 0; s < n; s++ {
					so := o
					so.RangeLo, so.RangeHi, so.RangeTotal = s, s+1, n
					shards = append(shards, shardedRun(t, id, so))
				}
				merged, err := results.Merge(shards...)
				if err != nil {
					t.Fatalf("%d-way merge: %v", n, err)
				}
				merged.Tables = e.Fold(merged.Tables)
				if len(merged.Tables) != len(full.Tables) {
					t.Fatalf("%d-way: merged %d tables, want %d", n, len(merged.Tables), len(full.Tables))
				}
				for i := range full.Tables {
					if got, want := merged.Tables[i].String(), full.Tables[i].String(); got != want {
						t.Fatalf("%s table %d: %d merged shards differ from unsharded run:\n--- merged ---\n%s--- unsharded ---\n%s",
							id, i, n, got, want)
					}
				}
				if rep := results.Diff(full, merged, results.Tolerance{}); !rep.Empty() {
					t.Fatalf("%s: structural diff of %d merged shards vs unsharded:\n%s", id, n, rep)
				}
			}
		})
	}
}

// TestPartialRunsSkipReduce pins that a run of part of a grid returns
// the grid's rows unreduced: one traced cell (OnlyCell) yields exactly
// that cell's row of the whole grid, and a survey (Survey) yields the
// grid's table with no rows.
func TestPartialRunsSkipReduce(t *testing.T) {
	e, err := Find("fig13")
	if err != nil {
		t.Fatal(err)
	}
	o := Options{Seed: 42, Scale: 0.25, Quick: true, Workers: 2}
	grid := e.Grid(o)[0]

	one := o
	one.OnlyCell = 5
	traced := e.Run(one)[0]
	if traced.Title != grid.Title || traced.NumRows() != 1 ||
		strings.Join(traced.Rows()[0], "|") != strings.Join(grid.Rows()[4], "|") {
		t.Fatalf("OnlyCell=5 run:\n%s\nwant row 5 of:\n%s", traced, grid)
	}

	surveyed := o
	surveyed.Survey = func(int, func(int) float64) {}
	if got := e.Run(surveyed)[0]; got.Title != grid.Title || got.NumRows() != 0 {
		t.Fatalf("survey run:\n%s", got)
	}
}

// TestShardRowCounts sanity-checks that each shard simulates only its
// own slice: together the shards produce exactly the unsharded row
// count, and no shard produces all of it.
func TestShardRowCounts(t *testing.T) {
	o := Options{Seed: 42, Scale: 0.25, Quick: true, Workers: 2}
	full := shardedRun(t, "fig10", o).Tables[0].NumRows()
	sum := 0
	for s := 0; s < 2; s++ {
		so := o
		so.RangeLo, so.RangeHi, so.RangeTotal = s, s+1, 2
		n := shardedRun(t, "fig10", so).Tables[0].NumRows()
		if n == 0 || n == full {
			t.Fatalf("shard %d produced %d of %d rows; sharding not splitting the grid", s, n, full)
		}
		sum += n
	}
	if sum != full {
		t.Fatalf("shards produced %d rows total, want %d", sum, full)
	}
}

// TestFig10TailTradeoff pins the semantics of the registered tail grid:
// a tight timeout caps the maximum acquire latency well below the
// timeout-free run and costs throughput.
func TestFig10TailTradeoff(t *testing.T) {
	e, err := Find("fig10_tail")
	if err != nil {
		t.Fatalf("fig10_tail not registered: %v", err)
	}
	rows := e.Run(quickOpts())[0].Rows()
	get := func(timeout string, col int) float64 {
		return cell(t, rows, func(r []string) bool { return r[0] == "20" && r[1] == timeout }, col)
	}
	noTO, shortTO := get("0", 6), get("22400", 6)
	if shortTO >= noTO {
		t.Fatalf("8 µs timeout max latency %.2f Mcyc should undercut timeout-free %.2f", shortTO, noTO)
	}
	thrFree, thrShort := get("0", 2), get("22400", 2)
	if thrFree <= thrShort {
		t.Fatalf("timeout-free throughput %.0f should exceed 8 µs-timeout %.0f", thrFree, thrShort)
	}
	// The tail metric is a real percentile: p95 ≤ p99.99 ≤ max.
	p95, p9999 := get("0", 4), get("0", 5)
	if p95 > p9999 || p9999/1e3 > noTO {
		t.Fatalf("percentiles not ordered: p95 %.1fK p99.99 %.1fK max %.2fM", p95, p9999, noTO)
	}
}
