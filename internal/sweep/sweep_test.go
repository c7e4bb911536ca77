package sweep

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"lockin/internal/metrics"
)

// TestCellSeedGolden pins the per-cell seed derivation: these values
// are part of the determinism contract (results recorded with one
// binary must reproduce with the next).
func TestCellSeedGolden(t *testing.T) {
	got := []int64{CellSeed(42, 0), CellSeed(42, 1), CellSeed(42, 2), CellSeed(7, 0)}
	want := []int64{-4767286540954276203, 2949826092126892291, 5139283748462763858, 7191089600892374487}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("CellSeed not stable at %d: %d vs %d", i, got[i], want[i])
		}
	}
	// Distinctness over a realistic grid (no two cells share a machine).
	seen := map[int64]int{}
	for i := 0; i < 4096; i++ {
		s := CellSeed(42, i)
		if j, dup := seen[s]; dup {
			t.Fatalf("CellSeed collision: cells %d and %d both seed %d", j, i, s)
		}
		seen[s] = i
	}
}

// TestCellSeedStableAcrossReorderings is the regression test for the
// seeding contract: evaluating cells in any order, with any worker
// count, and within any larger grid yields the same seed per index.
func TestCellSeedStableAcrossReorderings(t *testing.T) {
	const n = 64
	want := make([]int64, n)
	for i := 0; i < n; i++ {
		want[i] = CellSeed(42, i)
	}
	perm := rand.New(rand.NewSource(1)).Perm(n)
	for _, i := range perm {
		if got := CellSeed(42, i); got != want[i] {
			t.Fatalf("seed for cell %d changed under reordering: %d vs %d", i, got, want[i])
		}
	}
	for _, workers := range []int{1, 3, 8} {
		o := Options{Workers: workers, Seed: 42}
		seeds := Run(o, n, func(c Cell) int64 { return c.Seed })
		for i := range seeds {
			if seeds[i] != want[i] {
				t.Fatalf("Workers=%d delivered seed %d for cell %d, want %d", workers, seeds[i], i, want[i])
			}
		}
	}
}

// TestRunParallelMatchesSerial checks the core contract on a cell body
// with deliberately skewed completion times.
func TestRunParallelMatchesSerial(t *testing.T) {
	fn := func(c Cell) string {
		// Later cells finish first, forcing out-of-order completion.
		time.Sleep(time.Duration(50-c.Index) * 10 * time.Microsecond)
		return fmt.Sprintf("cell-%d-seed-%d", c.Index, c.Seed)
	}
	serial := Run(Options{Workers: 1, Seed: 42}, 50, fn)
	parallel := Run(Options{Workers: 8, Seed: 42}, 50, fn)
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Fatalf("cell %d: serial %q vs parallel %q", i, serial[i], parallel[i])
		}
	}
}

// TestEachEmitsInIndexOrder verifies streaming delivery order and that
// emit runs on the calling goroutine (no locking needed by callers).
func TestEachEmitsInIndexOrder(t *testing.T) {
	var order []int
	Each(Options{Workers: 6, Seed: 1}, 40, func(c Cell) int {
		time.Sleep(time.Duration((c.Index%7)+1) * 50 * time.Microsecond)
		return c.Index * 3
	}, func(i, v int) {
		if v != i*3 {
			t.Errorf("cell %d delivered value %d, want %d", i, v, i*3)
		}
		order = append(order, i)
	})
	if len(order) != 40 {
		t.Fatalf("emitted %d cells, want 40", len(order))
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("emit order broken at %d: %v", i, order[:i+1])
		}
	}
}

func TestProgressCountsEveryCell(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var calls int32
		last := 0
		o := Options{Workers: workers, Seed: 9, Progress: func(done, total int) {
			atomic.AddInt32(&calls, 1)
			if total != 17 {
				t.Errorf("total %d, want 17", total)
			}
			if done <= last || done > total {
				t.Errorf("non-monotonic progress: %d after %d", done, last)
			}
			last = done
		}}
		Run(o, 17, func(c Cell) int { return c.Index })
		if calls != 17 {
			t.Fatalf("Workers=%d: %d progress calls, want 17", workers, calls)
		}
	}
}

func TestWorkerCountDefaults(t *testing.T) {
	if got := (Options{}).WorkerCount(); got < 1 {
		t.Fatalf("default WorkerCount %d, want ≥1", got)
	}
	if got := (Options{Workers: 5}).WorkerCount(); got != 5 {
		t.Fatalf("explicit WorkerCount %d, want 5", got)
	}
}

func TestGridStreamsRowsInRegistrationOrder(t *testing.T) {
	build := func(workers int) string {
		tab := metrics.NewTable("grid", "cell", "seed")
		g := NewGrid(Options{Workers: workers, Seed: 42})
		for i := 0; i < 30; i++ {
			i := i
			g.Add(func(c Cell) []Row {
				if c.Index != i {
					t.Errorf("cell closure %d ran with index %d", i, c.Index)
				}
				time.Sleep(time.Duration((30-i)%5) * 40 * time.Microsecond)
				return []Row{{i, c.Seed}, {i, c.Seed + 1}}
			})
		}
		if g.Len() != 30 {
			t.Fatalf("grid has %d cells, want 30", g.Len())
		}
		g.Into(tab)
		return tab.String()
	}
	serial := build(1)
	parallel := build(8)
	if serial != parallel {
		t.Fatalf("grid output differs:\nserial:\n%s\nparallel:\n%s", serial, parallel)
	}
}

func TestPanicPropagates(t *testing.T) {
	for _, workers := range []int{1, 4} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Workers=%d: cell panic swallowed", workers)
				}
			}()
			Run(Options{Workers: workers, Seed: 3}, 10, func(c Cell) int {
				if c.Index == 7 {
					panic("boom")
				}
				return c.Index
			})
		}()
	}
}

// TestPanicStopsDispatch checks that a failing cell aborts the sweep
// instead of simulating every remaining cell first.
func TestPanicStopsDispatch(t *testing.T) {
	const n = 200
	var executed int32
	func() {
		defer func() { recover() }()
		Run(Options{Workers: 4, Seed: 3}, n, func(c Cell) int {
			atomic.AddInt32(&executed, 1)
			if c.Index == 0 {
				panic("boom")
			}
			time.Sleep(5 * time.Millisecond)
			return c.Index
		})
	}()
	if got := atomic.LoadInt32(&executed); got > n/2 {
		t.Fatalf("%d of %d cells executed after early panic; dispatch not cancelled", got, n)
	}
}

func TestRunEmptyGrid(t *testing.T) {
	if got := Run(Options{Workers: 4}, 0, func(c Cell) int { return 1 }); len(got) != 0 {
		t.Fatalf("empty grid returned %v", got)
	}
}

// shard is the cell range of the CLI's -shard i/n: [i, i+1) of n.
func shard(o Options, i, n int) Options {
	o.RangeLo, o.RangeHi, o.RangeTotal = i, i+1, n
	return o
}

// TestShardRangePartitions checks that shards tile the index space:
// contiguous, disjoint, and complete for any (n, count) combination,
// including counts larger than the grid.
func TestShardRangePartitions(t *testing.T) {
	for _, n := range []int{0, 1, 7, 30, 64} {
		for _, count := range []int{1, 2, 3, 7, 41} {
			prev := 0
			for s := 0; s < count; s++ {
				lo, hi := shard(Options{}, s, count).ShardRange(n)
				if lo != prev || hi < lo {
					t.Fatalf("n=%d count=%d shard %d: range [%d,%d) after %d", n, count, s, lo, hi, prev)
				}
				prev = hi
			}
			if prev != n {
				t.Fatalf("n=%d count=%d: shards cover %d cells", n, count, prev)
			}
		}
	}
	// Unsharded options own everything.
	if lo, hi := (Options{}).ShardRange(9); lo != 0 || hi != 9 {
		t.Fatalf("unsharded range [%d,%d)", lo, hi)
	}
	// Out-of-range coordinates clamp to the grid instead of panicking.
	if lo, hi := shard(Options{}, 5, 2).ShardRange(10); lo != 10 || hi != 10 {
		t.Fatalf("clamped range [%d,%d)", lo, hi)
	}
}

// TestShardUnionEqualsUnsharded is the sharding contract at the engine
// level: every cell of a sharded run keeps the seed and value it has in
// the unsharded run, and concatenating the shards' emissions in shard
// order reproduces the unsharded emission sequence exactly.
func TestShardUnionEqualsUnsharded(t *testing.T) {
	const n = 23
	fn := func(c Cell) string { return fmt.Sprintf("cell-%d-seed-%d", c.Index, c.Seed) }
	var want []string
	Each(Options{Workers: 1, Seed: 42}, n, fn, func(i int, v string) { want = append(want, v) })

	for _, count := range []int{2, 3, 5} {
		var got []string
		executed := 0
		for s := 0; s < count; s++ {
			o := shard(Options{Workers: 4, Seed: 42}, s, count)
			Each(o, n, fn, func(i int, v string) {
				got = append(got, v)
				executed++
			})
		}
		if executed != n {
			t.Fatalf("count=%d: shards executed %d cells, want %d", count, executed, n)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("count=%d: union diverges at %d: %q vs %q", count, i, got[i], want[i])
			}
		}
	}
}

// TestShardRunLeavesSkippedZero pins Run's sharded contract: the result
// slice keeps full length, with zero values exactly outside ShardRange.
func TestShardRunLeavesSkippedZero(t *testing.T) {
	o := shard(Options{Workers: 2, Seed: 1}, 1, 2)
	const n = 9
	got := Run(o, n, func(c Cell) int { return c.Index + 100 })
	lo, hi := o.ShardRange(n)
	for i := 0; i < n; i++ {
		in := i >= lo && i < hi
		if in && got[i] != i+100 {
			t.Fatalf("cell %d in shard but value %d", i, got[i])
		}
		if !in && got[i] != 0 {
			t.Fatalf("cell %d outside shard but value %d", i, got[i])
		}
	}
}

// TestShardProgressCountsShardCells checks Progress reports the shard's
// own cell count, not the full grid.
func TestShardProgressCountsShardCells(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var calls int32
		o := shard(Options{Workers: workers, Seed: 3,
			Progress: func(done, total int) {
				atomic.AddInt32(&calls, 1)
				if total != 10 { // 30 cells over 3 shards
					t.Errorf("total %d, want 10", total)
				}
			}}, 0, 3)
		Run(o, 30, func(c Cell) int { return c.Index })
		if calls != 10 {
			t.Fatalf("Workers=%d: %d progress calls, want 10", workers, calls)
		}
	}
}

// TestShardGridRows checks sharding through the Grid layer: each
// shard's table holds its own cells' rows, and concatenating the
// shards' rows reproduces the unsharded table.
func TestShardGridRows(t *testing.T) {
	build := func(o Options) *metrics.Table {
		tab := metrics.NewTable("grid", "cell", "seed")
		g := NewGrid(o)
		for i := 0; i < 11; i++ {
			g.Add(func(c Cell) []Row { return []Row{{c.Index, c.Seed}} })
		}
		g.Into(tab)
		return tab
	}
	full := build(Options{Workers: 3, Seed: 42})
	var union [][]string
	for s := 0; s < 2; s++ {
		part := build(shard(Options{Workers: 3, Seed: 42}, s, 2))
		union = append(union, part.Rows()...)
	}
	fullRows := full.Rows()
	if len(union) != len(fullRows) {
		t.Fatalf("union has %d rows, want %d", len(union), len(fullRows))
	}
	for i := range fullRows {
		for j := range fullRows[i] {
			if union[i][j] != fullRows[i][j] {
				t.Fatalf("row %d differs: %v vs %v", i, union[i], fullRows[i])
			}
		}
	}
}

// TestStatsCountsCellsAndBusyTime pins the engine instrumentation: a
// run-scoped Stats sees exactly one completion per cell (serial and
// parallel), busy time accumulates, and the process-wide totals move
// by the same amount.
func TestStatsCountsCellsAndBusyTime(t *testing.T) {
	const n = 12
	for _, workers := range []int{1, 4} {
		var st Stats
		before := TotalCells()
		o := Options{Workers: workers, Seed: 42, Stats: &st}
		Run(o, n, func(c Cell) int {
			time.Sleep(time.Millisecond)
			return c.Index
		})
		if st.Cells() != n {
			t.Errorf("Workers=%d: Stats.Cells = %d, want %d", workers, st.Cells(), n)
		}
		if st.Busy() < n*time.Millisecond {
			t.Errorf("Workers=%d: Stats.Busy = %v, want >= %v", workers, st.Busy(), n*time.Millisecond)
		}
		if got := TotalCells() - before; got != n {
			t.Errorf("Workers=%d: TotalCells moved by %d, want %d", workers, got, n)
		}
	}
	if TotalBusySeconds() <= 0 {
		t.Error("TotalBusySeconds is zero after timed cells")
	}
}

// TestOnlyCellRunsOneCellWithFullGridSeed pins the trace-mode hook:
// OnlyCell=k runs exactly cell k-1 with the seed it would have in a
// full run, leaves every other slot zero, and out-of-range indexes run
// nothing.
func TestOnlyCellRunsOneCellWithFullGridSeed(t *testing.T) {
	const n = 10
	o := Options{Workers: 2, Seed: 42, OnlyCell: 4}
	seeds := Run(o, n, func(c Cell) int64 { return c.Seed })
	for i, s := range seeds {
		switch {
		case i == 3 && s != CellSeed(42, 3):
			t.Errorf("cell 3 seed = %d, want full-grid seed %d", s, CellSeed(42, 3))
		case i != 3 && s != 0:
			t.Errorf("cell %d ran under OnlyCell=4 (seed %d)", i, s)
		}
	}
	if lo, hi := o.ShardRange(n); lo != 3 || hi != 4 {
		t.Errorf("ShardRange under OnlyCell=4 is [%d,%d), want [3,4)", lo, hi)
	}
	ran := 0
	Run(Options{Seed: 42, OnlyCell: n + 1}, n, func(c Cell) int { ran++; return 0 })
	if ran != 0 {
		t.Errorf("OnlyCell beyond the grid ran %d cells, want 0", ran)
	}
}
