// Package sweep is the parallel experiment-grid engine. The paper's
// evaluation is dominated by grids of independent cells (lock kind ×
// thread count × critical-section length, one simulated machine per
// cell); sweep fans those cells out across a worker pool while keeping
// the output bit-identical to a serial run.
//
// Determinism contract: a cell's result may depend only on its Cell
// value — its index in the grid and the seed derived from it — never on
// scheduling order or worker count. Each cell builds its own simulated
// machine seeded with CellSeed(Options.Seed, index), a stable hash, so
// re-running with any Workers value (including the serial fallback
// Workers=1) reproduces the same results in the same order.
package sweep

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Options tunes a sweep run. The engine itself consumes Workers, Seed
// and Progress; Scale and Quick ride along for the grid builders that
// enumerate cells (internal/experiments applies them to window lengths
// and grid sizes, workload.RunSweep applies Scale to each
// configuration's windows). The zero value of every field is usable.
type Options struct {
	// Workers is the number of concurrent grid cells (0 = GOMAXPROCS,
	// 1 = serial fallback in the caller's goroutine).
	Workers int
	// Seed is the base RNG seed; each cell derives its own machine seed
	// via CellSeed(Seed, index).
	Seed int64
	// Scale multiplies every measurement window (values ≤ 0 mean the
	// quick default, 1.0). Interpreted by grid builders, not the engine.
	Scale float64
	// Quick trims sweep grids for CI-style runs. Interpreted by grid
	// builders, not the engine.
	Quick bool
	// RangeLo/RangeHi/RangeTotal split a grid across processes: when
	// RangeTotal > 0, a grid of n cells executes exactly the indexes
	// [n·RangeLo/RangeTotal, n·RangeHi/RangeTotal) (see ShardRange); the
	// rest are skipped — not re-seeded — so every surviving cell keeps
	// its index-derived seed. With RangeTotal equal to the grid size the
	// coordinates are literal cell indexes; for grids of other sizes (an
	// experiment sweeping several grids) the range scales
	// proportionally. Disjoint contiguous ranges tiling [0, RangeTotal)
	// therefore tile every grid's index space, which is what lets the
	// CLI's -shard i/n (the range [i, i+1) of total n) and the fleet's
	// leased chunks merge byte-identically (results.Merge).
	// RangeTotal ≤ 0 runs everything.
	RangeLo    int
	RangeHi    int
	RangeTotal int
	// Cost, when non-nil, estimates the relative execution cost of cell
	// index (any monotone proxy works — thread count, window length).
	// A parallel sweep dispatches the most expensive undone cell inside
	// its reorder window first, cutting the straggler tail on skewed
	// grids. Output bytes never depend on it: emission stays in strict
	// index order.
	Cost func(index int) float64
	// Survey, when non-nil, disables execution: every grid swept under
	// these options reports its full cell count and cost-hint function
	// (nil when the builder declared none) to Survey and returns
	// without simulating. The fleet coordinator uses it to enumerate
	// and price a grid in microseconds before leasing its cells out.
	Survey func(cells int, cost func(index int) float64)
	// OnlyCell, when > 0, restricts the sweep to the single 1-based
	// cell index OnlyCell (the index reported by run queries), taking
	// precedence over the cell range. The cell keeps its
	// index-derived seed, so its result is byte-identical to the same
	// cell of a full run. An index beyond the grid runs nothing. This
	// is the trace-mode hook: simulate exactly one cell, instrumented.
	OnlyCell int
	// Progress, when non-nil, is called from the collecting goroutine
	// after each cell finishes, with the number of finished cells and
	// the count of cells in this range.
	Progress func(done, total int)
	// Stats, when non-nil, accumulates per-run engine counters (cells
	// completed, worker busy time) across every grid swept with these
	// Options. Safe for concurrent cells; see Stats.
	Stats *Stats
}

// Stats accumulates sweep-engine activity for one logical run (an
// experiment set, a service job). Counters are atomic: cells complete
// on worker goroutines. Process-wide totals are kept separately
// (TotalCells, TotalBusySeconds) for scrape surfaces.
type Stats struct {
	cells     atomic.Uint64
	busyNanos atomic.Int64
}

// Cells returns how many grid cells completed under this Stats.
func (s *Stats) Cells() uint64 { return s.cells.Load() }

// Busy returns the summed wall-clock time workers spent inside cell
// functions — across all workers, so Busy can exceed elapsed time.
func (s *Stats) Busy() time.Duration { return time.Duration(s.busyNanos.Load()) }

// Merge folds another Stats' counters into s — how a fleet worker
// accumulates its per-chunk counters into a process-wide total.
func (s *Stats) Merge(o *Stats) {
	s.cells.Add(o.cells.Load())
	s.busyNanos.Add(int64(o.Busy()))
}

func (s *Stats) record(d time.Duration) {
	s.cells.Add(1)
	s.busyNanos.Add(int64(d))
}

// Process-wide engine totals, aggregated across every sweep since
// process start regardless of whether the caller supplied a Stats.
var (
	totalCells     atomic.Uint64
	totalBusyNanos atomic.Int64
)

// TotalCells returns the process-wide completed-cell count.
func TotalCells() uint64 { return totalCells.Load() }

// TotalBusySeconds returns the process-wide worker busy time, in
// seconds.
func TotalBusySeconds() float64 {
	return time.Duration(totalBusyNanos.Load()).Seconds()
}

// DefaultOptions returns quick settings with a fixed seed and one
// worker per available CPU.
func DefaultOptions() Options { return Options{Seed: 42, Scale: 1.0} }

// WorkerCount resolves Workers: values ≤ 0 map to GOMAXPROCS.
func (o Options) WorkerCount() int {
	if o.Workers > 0 {
		return o.Workers
	}
	if n := runtime.GOMAXPROCS(0); n > 1 {
		return n
	}
	return 1
}

// CellSeed derives the machine seed of grid cell index from the base
// seed. It is a pure function (splitmix64-style finalizer), so a cell's
// seed is independent of evaluation order, worker count, and the
// presence of other cells.
func CellSeed(seed int64, index int) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*(uint64(index)+1)
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z)
}

// ShardRange returns the half-open cell-index interval [lo, hi) this
// cell range owns in a grid of n cells. Ranges are contiguous slices
// of the index space: the per-grid intervals of ranges that tile
// [0, RangeTotal) concatenate to the cells 0..n-1 in order, which is
// what lets results.Merge reassemble partial runs byte-identically.
func (o Options) ShardRange(n int) (lo, hi int) {
	if o.OnlyCell > 0 {
		if o.OnlyCell > n {
			return 0, 0
		}
		return o.OnlyCell - 1, o.OnlyCell
	}
	rl, rh, total := o.RangeLo, o.RangeHi, o.RangeTotal
	if total <= 0 {
		return 0, n
	}
	if rl < 0 {
		rl = 0
	}
	if rl > total {
		rl = total
	}
	if rh > total {
		rh = total
	}
	if rh < rl {
		rh = rl
	}
	return n * rl / total, n * rh / total
}

// Cell identifies one grid cell of a sweep.
type Cell struct {
	// Index is the cell's position in registration order.
	Index int
	// Seed is CellSeed(Options.Seed, Index): the seed for this cell's
	// simulated machine.
	Seed int64
}

func (o Options) cell(i int) Cell { return Cell{Index: i, Seed: CellSeed(o.Seed, i)} }

// Run executes n independent cells across the worker pool and returns
// their results in index order. Under a cell range (RangeTotal > 0) or
// OnlyCell the slice still has n entries, but cells outside the range
// (ShardRange) are skipped and left as zero values.
func Run[T any](o Options, n int, fn func(Cell) T) []T {
	out := make([]T, n)
	Each(o, n, fn, func(i int, v T) { out[i] = v })
	return out
}

// inflightPerWorker bounds how far a parallel sweep runs ahead of its
// emit cursor: at most inflightPerWorker·workers cells are dispatched
// or held completed beyond the lowest unemitted index. The window
// bounds peak memory at O(workers) completed-but-unemittable results
// (instead of the whole range, which a slow early cell used to force)
// while leaving enough reorder slack for cost-ordered dispatch.
const inflightPerWorker = 4

// Each executes the cells of this range (all n cells without one)
// across the worker pool, streaming results to emit in strict index
// order as each prefix completes. emit and Progress run on the calling
// goroutine; fn runs on worker goroutines (or inline when the pool
// resolves to one worker).
func Each[T any](o Options, n int, fn func(Cell) T, emit func(i int, v T)) {
	if o.Survey != nil {
		o.Survey(n, o.Cost)
		return
	}
	lo, hi := o.ShardRange(n)
	if hi <= lo {
		return
	}
	// Wrap fn with per-cell timing. time.Now costs nanoseconds against
	// cells that simulate for milliseconds, so the engine always feeds
	// the process-wide totals; Options.Stats additionally scopes them
	// to this run when the caller wants a cells/sec figure.
	inner := fn
	fn = func(c Cell) T {
		start := time.Now()
		v := inner(c)
		d := time.Since(start)
		totalCells.Add(1)
		totalBusyNanos.Add(int64(d))
		if o.Stats != nil {
			o.Stats.record(d)
		}
		return v
	}
	total := hi - lo
	workers := o.WorkerCount()
	if workers > total {
		workers = total
	}
	if workers == 1 {
		for i := lo; i < hi; i++ {
			v := fn(o.cell(i))
			if o.Progress != nil {
				o.Progress(i-lo+1, total)
			}
			emit(i, v)
		}
		return
	}

	window := inflightPerWorker * workers
	if window > total {
		window = total
	}

	type result struct {
		i     int
		v     T
		panic any
	}
	idx := make(chan int)
	// At most window results are in flight (dispatched or completed but
	// unemitted), so a window-sized buffer means workers never block on
	// the collector.
	out := make(chan result, window)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				r := result{i: i}
				func() {
					defer func() { r.panic = recover() }()
					r.v = fn(o.cell(i))
				}()
				out <- r
			}
		}()
	}

	// The calling goroutine both dispatches and collects: dispatch is
	// bounded to the window [next, next+window) ahead of the emit
	// cursor (backpressure — peak memory stays O(workers), not O(total))
	// and, within that window, picks the most expensive ready cell
	// first when a Cost hint exists. Emission stays strict index order,
	// so neither the window nor the dispatch order can change output
	// bytes.
	ready := newCostQueue(o.Cost)
	pending := make(map[int]T, window)
	next, feed := lo, lo
	dispatched, done := 0, 0
	var failed any
	refill := func() {
		for feed < hi && feed < next+window {
			ready.push(feed)
			feed++
		}
	}
	refill()
	for done < total {
		var send chan int
		var cand int
		if failed == nil && ready.len() > 0 {
			cand = ready.peek()
			send = idx
		} else if dispatched == 0 {
			// A cell panicked, dispatch stopped, and every in-flight
			// result has drained: nothing further can arrive.
			break
		}
		select {
		case send <- cand:
			ready.pop()
			dispatched++
		case r := <-out:
			dispatched--
			if r.panic != nil && failed == nil {
				// Stop dispatching after the first panic, so a failure
				// early in a long sweep doesn't simulate the remaining
				// cells before surfacing.
				failed = fmt.Errorf("sweep: cell %d panicked: %v", r.i, r.panic)
				continue
			}
			done++
			if o.Progress != nil {
				o.Progress(done, total)
			}
			pending[r.i] = r.v
			for {
				v, ok := pending[next]
				if !ok {
					break
				}
				delete(pending, next)
				if failed == nil {
					emit(next, v)
				}
				next++
			}
			refill()
		}
	}
	close(idx)
	wg.Wait()
	if failed != nil {
		panic(failed)
	}
}

// costQueue orders dispatchable cell indexes: a plain FIFO (ascending
// index) without a cost hint, a max-heap on cost with ascending-index
// tie-break with one — the same cell always dispatches first for a
// fixed window content, keeping dispatch order deterministic.
type costQueue struct {
	cost func(int) float64
	q    []int // FIFO when cost == nil, else heap-ordered
}

func newCostQueue(cost func(int) float64) *costQueue { return &costQueue{cost: cost} }

func (c *costQueue) len() int { return len(c.q) }

// before reports whether index a dispatches ahead of index b.
func (c *costQueue) before(a, b int) bool {
	ca, cb := c.cost(a), c.cost(b)
	if ca != cb {
		return ca > cb
	}
	return a < b
}

func (c *costQueue) push(i int) {
	c.q = append(c.q, i)
	if c.cost == nil {
		return
	}
	for k := len(c.q) - 1; k > 0; {
		parent := (k - 1) / 2
		if !c.before(c.q[k], c.q[parent]) {
			break
		}
		c.q[k], c.q[parent] = c.q[parent], c.q[k]
		k = parent
	}
}

func (c *costQueue) peek() int { return c.q[0] }

func (c *costQueue) pop() int {
	top := c.q[0]
	if c.cost == nil {
		c.q = c.q[1:]
		return top
	}
	last := len(c.q) - 1
	c.q[0] = c.q[last]
	c.q = c.q[:last]
	for k := 0; ; {
		l, r := 2*k+1, 2*k+2
		best := k
		if l < len(c.q) && c.before(c.q[l], c.q[best]) {
			best = l
		}
		if r < len(c.q) && c.before(c.q[r], c.q[best]) {
			best = r
		}
		if best == k {
			break
		}
		c.q[k], c.q[best] = c.q[best], c.q[k]
		k = best
	}
	return top
}
