package sim

import "testing"

func nopCall(any, uint64, uint64) {}

// TestScheduleSteadyStateZeroAlloc pins the pooled event queue's core
// guarantee: once the free list is warm, scheduling and firing events
// allocates nothing.
func TestScheduleSteadyStateZeroAlloc(t *testing.T) {
	k := NewKernel(1)
	until := Cycles(0)
	fn := func() {}
	step := func() {
		until += 10
		k.ScheduleCall(10, nopCall, nil, 0, 0)
		k.Schedule(10, fn) // the func value travels as obj, unboxed
		k.Run(until)
	}
	for i := 0; i < 64; i++ {
		step() // warm the free list and the heap's backing array
	}
	if n := testing.AllocsPerRun(200, step); n != 0 {
		t.Errorf("schedule+fire allocates %.1f per op, want 0", n)
	}
}

// TestCancelSteadyStateZeroAlloc: scheduling and cancelling (the futex
// timeout pattern — most timers are beaten by wakes) recycles through
// the free list without allocating, even across compactions.
func TestCancelSteadyStateZeroAlloc(t *testing.T) {
	k := NewKernel(1)
	until := Cycles(0)
	step := func() {
		until += 10
		ev := k.ScheduleCall(1000, nopCall, nil, 0, 0)
		k.ScheduleCall(10, nopCall, nil, 0, 0)
		k.Cancel(ev)
		k.Run(until)
	}
	for i := 0; i < 256; i++ {
		step()
	}
	if n := testing.AllocsPerRun(500, step); n != 0 {
		t.Errorf("schedule+cancel allocates %.1f per op, want 0", n)
	}
}

// TestFarEventSteadyStateZeroAlloc: an event due past the calendar goes to
// the heap, and the clock brings it inside the calendar's window before it
// fires from the heap; that path recycles without allocating too.
func TestFarEventSteadyStateZeroAlloc(t *testing.T) {
	k := NewKernel(1)
	until := Cycles(0)
	step := func() {
		until += 1000
		k.ScheduleCall(calendarSpan+5000, nopCall, nil, 0, 0)
		k.ScheduleCall(10, nopCall, nil, 0, 0)
		k.Run(until)
	}
	for i := 0; i < 64; i++ {
		step()
	}
	if len(k.heap) == 0 || k.heap[0].at-k.now >= calendarSpan {
		t.Fatalf("no far event came inside the window: heap %d, clock %d", len(k.heap), k.now)
	}
	if n := testing.AllocsPerRun(200, step); n != 0 {
		t.Errorf("far schedule+fire allocates %.1f per op, want 0", n)
	}
}

// TestProcSleepSteadyStateZeroAlloc: sleeping procs in steady state —
// typed wake events plus the token handoff — allocate nothing per
// sleep. Two sleepers in phase hand control over at every park; one
// sleeping alone gets it back without a switch (the self-wake path of
// BenchmarkProcParkWake).
func TestProcSleepSteadyStateZeroAlloc(t *testing.T) {
	for _, sleepers := range []int{2, 1} {
		k := NewKernel(1)
		for i := 0; i < sleepers; i++ {
			k.Go(i, "sleeper", 0, func(p *Proc) {
				for {
					p.Sleep(10)
				}
			})
		}
		until := Cycles(0)
		step := func() {
			until += 100
			k.Run(until)
		}
		for i := 0; i < 64; i++ {
			step()
		}
		if n := testing.AllocsPerRun(200, step); n != 0 {
			t.Errorf("%d sleepers: park/wake allocates %.1f per 100 cycles, want 0", sleepers, n)
		}
	}
}

// TestProcWakeSteadyStateZeroAlloc: a proc that wakes another through a
// scheduled callback's tail Wake, the one wake path, allocates nothing
// per wake.
func TestProcWakeSteadyStateZeroAlloc(t *testing.T) {
	k := NewKernel(1)
	a := k.Go(0, "waiter", 0, func(p *Proc) {
		for {
			p.Park()
		}
	})
	k.Go(1, "waker", 0, func(p *Proc) {
		for {
			k.ScheduleCall(0, tailWake, a, 1, 0)
			p.Sleep(10)
		}
	})
	until := Cycles(0)
	step := func() {
		until += 100
		k.Run(until)
	}
	for i := 0; i < 64; i++ {
		step()
	}
	if n := testing.AllocsPerRun(200, step); n != 0 {
		t.Errorf("tail Wake allocates %.1f per 100 cycles, want 0", n)
	}
}
