package coherence

import (
	"testing"

	"lockin/internal/sim"
)

// TestRMWContendedZeroAlloc: an atomic RMW on a line polled by contexts
// whose predicates never match (a contended test-and-set lock) scans,
// shuffles and arbitrates without allocating.
func TestRMWContendedZeroAlloc(t *testing.T) {
	k := sim.NewKernel(1)
	m := NewModel(k, DefaultConfig(), twoSocket{})
	l := m.NewLine("l")
	never := func(uint64) bool { return false }
	fire := func(uint64) {}
	for i := 0; i < 8; i++ {
		l.Watch(&Watcher{Ctx: i, Kind: WatchGlobal, Pred: never, Fire: fire})
	}
	bump := func(v uint64) (uint64, bool) { return v + 2, true }
	ctx := 0
	step := func() {
		ctx = (ctx + 1) % 40
		l.RMW(ctx, bump)
	}
	for i := 0; i < 64; i++ {
		step() // warm the watcher snapshot buffer
	}
	if n := testing.AllocsPerRun(500, step); n != 0 {
		t.Errorf("contended RMW allocates %.1f per op, want 0", n)
	}
}

// TestWriteFiringWatcherZeroAlloc: a store that satisfies a watcher (a
// spin lock's release waking its spinner) schedules the staggered
// wake-up, and the kernel delivers it, without allocating.
func TestWriteFiringWatcherZeroAlloc(t *testing.T) {
	k := sim.NewKernel(1)
	m := NewModel(k, DefaultConfig(), twoSocket{})
	l := m.NewLine("l")
	never := func(uint64) bool { return false }
	for i := 0; i < 8; i++ {
		l.Watch(&Watcher{Ctx: 10 + i, Kind: WatchLocal, Pred: never, Fire: func(uint64) {}})
	}
	fired := 0
	w := &Watcher{Ctx: 3, Kind: WatchLocal, Pred: func(v uint64) bool { return v == 1 }, Fire: func(uint64) { fired++ }}
	step := func() {
		l.Write(0, 0)
		l.Watch(w)
		l.Write(0, 1) // the predicate holds: w's wake-up is scheduled
		k.Drain()
	}
	for i := 0; i < 64; i++ {
		step() // warm the snapshot buffer and the kernel's event pool
	}
	const runs = 500
	if n := testing.AllocsPerRun(runs, step); n != 0 {
		t.Errorf("store firing a watcher allocates %.1f per op, want 0", n)
	}
	if want := 64 + runs + 1; fired != want {
		t.Errorf("watcher fired %d times, want %d", fired, want)
	}
}
