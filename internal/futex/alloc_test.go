package futex

import (
	"testing"

	"lockin/internal/sched"
	"lockin/internal/sim"
)

// steadyZeroAlloc warms h's simulation up, requires one step of window
// cycles to allocate nothing, then ends the bodies (done) and drains.
// progress reports how many operations have completed, so a step that
// did nothing cannot pass.
func steadyZeroAlloc(t *testing.T, h *harness, done *bool, window sim.Cycles, progress func() int, what string) {
	t.Helper()
	until := sim.Cycles(0)
	step := func() {
		until += window
		h.k.Run(until)
	}
	for i := 0; i < 16; i++ {
		step() // warm the event pool, waiter free list and run queue
	}
	const runs = 100
	before := progress()
	if n := testing.AllocsPerRun(runs, step); n != 0 {
		t.Errorf("%s allocates %.1f per %d cycles, want 0", what, n, window)
	}
	if got := progress() - before; got < runs {
		t.Errorf("%d %s operations in %d steps, want at least one per step", got, what, runs+1)
	}
	*done = true
	h.k.Drain()
}

// allocInputs are the loads the zero-alloc tests put on one word: one
// sleeper (and its waker), and two, whose calls wait for each other's
// hold of the word's bucket lock.
var allocInputs = []struct {
	name     string
	sleepers int
}{
	{"one-word", 1},
	{"contended-bucket", 2},
}

// TestWaitWakeZeroAlloc: a FUTEX_WAIT blocked until a FUTEX_WAKE (the
// MUTEX and MUTEXEE sleep-and-handover path) allocates nothing per round
// trip once the waiter and event pools are warm, with or without a
// contended bucket lock.
func TestWaitWakeZeroAlloc(t *testing.T) {
	for _, in := range allocInputs {
		t.Run(in.name, func(t *testing.T) {
			h := newHarness(1)
			done, woken := false, 0
			var word uint64 = 1
			w := h.tb.NewWord(func() uint64 { return word })
			for i := 0; i < in.sleepers; i++ {
				h.s.Spawn("sleeper", func(th *sched.Thread) {
					for !done {
						word = 1
						if h.tb.Wait(th, w, 1, 0) == Woken {
							woken++
						}
					}
				})
				h.s.Spawn("waker", func(th *sched.Thread) {
					for !done {
						for w.Waiters() == 0 && !done {
							th.Run(500)
						}
						word = 0
						h.tb.Wake(th, w, 1)
					}
				})
			}
			steadyZeroAlloc(t, h, &done, 100_000, func() int { return woken }, "futex wait/wake")
			if in.sleepers > 1 && h.tb.Stats().BucketWait == 0 {
				t.Error("no call waited for the word's bucket lock")
			}
		})
	}
}

// TestWaitTimeoutZeroAlloc: a timed FUTEX_WAIT whose timeout fires (the
// MUTEXEE spin-then-sleep fallback) arms, fires and retires its timer
// without allocating, with or without a contended bucket lock.
func TestWaitTimeoutZeroAlloc(t *testing.T) {
	for _, in := range allocInputs {
		t.Run(in.name, func(t *testing.T) {
			h := newHarness(1)
			done, timeouts := false, 0
			w := h.tb.NewWord(func() uint64 { return 1 })
			for i := 0; i < in.sleepers; i++ {
				h.s.Spawn("sleeper", func(th *sched.Thread) {
					for !done {
						if h.tb.Wait(th, w, 1, 50_000) == TimedOut {
							timeouts++
						}
					}
				})
			}
			steadyZeroAlloc(t, h, &done, 100_000, func() int { return timeouts }, "timed futex wait")
			if in.sleepers > 1 && h.tb.Stats().BucketWait == 0 {
				t.Error("no call waited for the word's bucket lock")
			}
		})
	}
}
