package sim

import "testing"

func nopCall(any, uint64, uint64) {}

// TestScheduleSteadyStateZeroAlloc pins the pooled event queue's core
// guarantee: once the free list is warm, scheduling and firing events
// allocates nothing.
func TestScheduleSteadyStateZeroAlloc(t *testing.T) {
	k := NewKernel(1)
	until := Cycles(0)
	step := func() {
		until += 10
		k.ScheduleCall(10, nopCall, nil, 0, 0)
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

// TestProcSleepSteadyStateZeroAlloc: a parked/woken proc pair in steady
// state — typed wake events plus the token handoff — allocates nothing
// per sleep.
func TestProcSleepSteadyStateZeroAlloc(t *testing.T) {
	k := NewKernel(1)
	for i := 0; i < 2; i++ {
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
		t.Errorf("park/wake allocates %.1f per 100 cycles, want 0", n)
	}
}

// TestProcWakeSteadyStateZeroAlloc: a proc that wakes another from proc
// context (the synchronous, nested Wake) allocates nothing per wake.
func TestProcWakeSteadyStateZeroAlloc(t *testing.T) {
	k := NewKernel(1)
	a := k.Go(0, "waiter", 0, func(p *Proc) {
		for {
			p.Park()
		}
	})
	k.Go(1, "waker", 0, func(p *Proc) {
		for {
			p.Sleep(10)
			a.Wake(1)
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
		t.Errorf("synchronous Wake allocates %.1f per 100 cycles, want 0", n)
	}
}
