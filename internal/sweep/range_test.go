package sweep

import (
	"fmt"
	"sync"
	"testing"

	"lockin/internal/metrics"
)

// TestRangeUnionEqualsSerial is the generalized-shard contract: cell
// ranges tiling [0, Total) — with Total unrelated to the grid size —
// execute every cell exactly once, in index order across the tiles,
// with unchanged seeds.
func TestRangeUnionEqualsSerial(t *testing.T) {
	const n = 23
	fn := func(c Cell) string { return fmt.Sprintf("cell-%d-seed-%d", c.Index, c.Seed) }
	var want []string
	Each(Options{Workers: 1, Seed: 42}, n, fn, func(i int, v string) { want = append(want, v) })

	// Uneven tilings, with totals smaller and larger than the grid.
	for _, cuts := range [][]int{
		{0, 2, 9, 16, 16, 23}, // total 23, one empty tile
		{0, 1, 6, 6},          // total 6 < n
		{0, 40, 100},          // total 100 > n
	} {
		total := cuts[len(cuts)-1]
		var got []string
		for k := 0; k+1 < len(cuts); k++ {
			o := Options{Workers: 3, Seed: 42,
				RangeLo: cuts[k], RangeHi: cuts[k+1], RangeTotal: total}
			Each(o, n, fn, func(i int, v string) { got = append(got, v) })
		}
		if len(got) != n {
			t.Fatalf("cuts %v: tiles executed %d cells, want %d", cuts, len(got), n)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("cuts %v: union diverges at %d: %q vs %q", cuts, i, got[i], want[i])
			}
		}
	}
}

// FuzzShardRange fuzzes the range arithmetic against its invariants:
// output clamped to [0, n], monotone, and splitting a range at any
// interior coordinate tiles its cell interval exactly.
func FuzzShardRange(f *testing.F) {
	f.Add(9, 0, 2, 6, 1)
	f.Add(23, 3, 7, 12, 5)
	f.Add(2, 0, 9, 9, 4)
	f.Add(100, 7, 7, 7, 7)
	f.Add(5, -1, 99, 3, 0)
	f.Fuzz(func(t *testing.T, n, lo, hi, total, mid int) {
		if n < 0 || n > 4096 {
			t.Skip()
		}
		o := Options{RangeLo: lo, RangeHi: hi, RangeTotal: total}
		glo, ghi := o.ShardRange(n)
		if glo < 0 || ghi < glo || ghi > n {
			t.Fatalf("ShardRange(%d) of %d-%d/%d = [%d,%d): outside [0,%d]", n, lo, hi, total, glo, ghi, n)
		}
		if total < 1 {
			return
		}
		// Clamp like ShardRange does, then split [lo,hi) at mid: the two
		// halves' cell intervals must tile [glo,ghi) exactly.
		clo, chi := lo, hi
		if clo < 0 {
			clo = 0
		}
		if clo > total {
			clo = total
		}
		if chi > total {
			chi = total
		}
		if chi < clo {
			chi = clo
		}
		if mid < clo || mid > chi {
			if chi == clo {
				return
			}
			mid = clo + (abs(mid) % (chi - clo + 1))
		}
		alo, ahi := Options{RangeLo: clo, RangeHi: mid, RangeTotal: total}.ShardRange(n)
		blo, bhi := Options{RangeLo: mid, RangeHi: chi, RangeTotal: total}.ShardRange(n)
		if alo != glo || ahi != blo || bhi != ghi {
			t.Fatalf("split of %d-%d/%d at %d does not tile: [%d,%d)+[%d,%d) vs [%d,%d)",
				clo, chi, total, mid, alo, ahi, blo, bhi, glo, ghi)
		}
	})
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// TestSurveyEnumeratesWithoutExecuting checks the coordinator's probe
// mode: a grid reports its size and cost hints and returns before
// simulating any cell.
func TestSurveyEnumeratesWithoutExecuting(t *testing.T) {
	executed := 0
	surveyed := -1
	var gotCost func(int) float64
	o := Options{Workers: 4, Seed: 42,
		Cost:   func(i int) float64 { return float64(i) },
		Survey: func(cells int, cost func(int) float64) { surveyed = cells; gotCost = cost },
	}
	Each(o, 17, func(c Cell) int { executed++; return 0 }, func(int, int) {})
	if executed != 0 {
		t.Fatalf("survey mode executed %d cells", executed)
	}
	if surveyed != 17 {
		t.Fatalf("survey reported %d cells, want 17", surveyed)
	}
	if gotCost == nil || gotCost(3) != 3 {
		t.Fatal("survey did not receive the cost hints")
	}
}

// TestGridCostFromItsOwnHints: a grid prices its cells from its own
// hints alone, so a Cost set on the options it was built with never
// reaches the engine, and a grid without hints has none.
func TestGridCostFromItsOwnHints(t *testing.T) {
	var gotCost func(int) float64
	o := Options{
		Cost:   func(i int) float64 { return float64(i) },
		Survey: func(_ int, cost func(int) float64) { gotCost = cost },
	}
	g := NewGrid(o)
	g.Add(func(Cell) []Row { return nil })
	g.Add(func(Cell) []Row { return nil })
	g.Into(metrics.NewTable("t", "x"))
	if gotCost != nil {
		t.Fatal("an unhinted grid passed the options' Cost to the engine")
	}
	g = NewGrid(o)
	g.AddHinted(7, func(Cell) []Row { return nil })
	g.AddHinted(2, func(Cell) []Row { return nil })
	g.Into(metrics.NewTable("t", "x"))
	if gotCost == nil || gotCost(0) != 7 || gotCost(1) != 2 {
		t.Fatal("a hinted grid did not pass its own hints to the engine")
	}
}

// TestWindowBoundsInflight pins the backpressure satellite: with one
// slow early cell, dispatch never runs further than
// inflightPerWorker·workers indices past the emit cursor — peak
// pending memory stays O(workers) instead of O(grid).
func TestWindowBoundsInflight(t *testing.T) {
	const n, workers = 100, 4
	window := inflightPerWorker * workers // 16

	var mu sync.Mutex
	othersDone := 0
	release := make(chan struct{})
	released := false
	maxWhileBlocked := 0

	fn := func(c Cell) int {
		if c.Index == 0 {
			<-release // cell 0 blocks until 8 later cells completed
			return 0
		}
		mu.Lock()
		if !released && c.Index > maxWhileBlocked {
			maxWhileBlocked = c.Index
		}
		mu.Unlock()
		defer func() {
			mu.Lock()
			othersDone++
			if othersDone == 8 && !released {
				released = true
				close(release)
			}
			mu.Unlock()
		}()
		return c.Index
	}
	got := Run(Options{Workers: workers, Seed: 1}, n, fn)
	for i := 1; i < n; i++ {
		if got[i] != i {
			t.Fatalf("cell %d returned %d", i, got[i])
		}
	}
	if maxWhileBlocked >= window {
		t.Fatalf("cell %d dispatched while cell 0 pending — window %d not enforced", maxWhileBlocked, window)
	}
}

// TestCostQueueOrders pins the dispatch order primitive: highest cost
// first, lowest index on ties, and so lowest index first without hints,
// whatever the push order.
func TestCostQueueOrders(t *testing.T) {
	cost := map[int]float64{0: 1, 1: 5, 2: 3, 3: 5, 4: 0}
	q := &costQueue{cost: func(i int) float64 { return cost[i] }}
	for i := 0; i < 5; i++ {
		q.push(i)
	}
	var got []int
	for q.len() > 0 {
		p := q.peek()
		v := q.pop()
		if p != v {
			t.Fatalf("peek %d disagrees with pop %d", p, v)
		}
		got = append(got, v)
	}
	want := []int{1, 3, 2, 0, 4}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("hinted pop order %v, want %v", got, want)
		}
	}

	q = &costQueue{}
	for i := 4; i >= 0; i-- {
		q.push(i)
	}
	got = got[:0]
	for q.len() > 0 {
		got = append(got, q.pop())
	}
	want = []int{0, 1, 2, 3, 4} // every cell ties: index order
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("unhinted pop order %v, want %v", got, want)
		}
	}
}
