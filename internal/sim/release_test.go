package sim

import (
	"bytes"
	"errors"
	"runtime"
	"strings"
	"testing"
)

// procGoroutines counts the goroutines running a proc's coroutine, so a
// check is immune to unrelated goroutines starting or exiting.
func procGoroutines() int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	return bytes.Count(buf, []byte("lockin/internal/sim.(*Proc).run("))
}

// parkForever is a body that nothing ever wakes, like Figure 3's sleepers.
func parkForever(t *testing.T) func(*Proc) {
	return func(p *Proc) {
		p.Park()
		t.Errorf("released proc %q resumed its body", p.Name())
	}
}

// TestDrainReleasesParkedProcs: Drain ends the simulation. A proc still
// parked when the queue empties is released: it is done, its goroutine has
// exited, its body unwound through its deferred calls, and the clock and
// queue are what the last event left. A proc whose body returned left the
// live list on its own.
func TestDrainReleasesParkedProcs(t *testing.T) {
	before := procGoroutines()
	k := NewKernel(1)
	unwound := false
	forever := k.Go(0, "forever", 0, func(p *Proc) {
		defer func() { unwound = true }()
		parkForever(t)(p)
	})
	finisher := k.Go(1, "finisher", 0, func(p *Proc) { p.Sleep(10) })
	k.Run(5)
	if got := procGoroutines(); got != before+2 {
		t.Fatalf("%d proc goroutines while both procs are parked, want %d", got, before+2)
	}
	if end := k.Drain(); end != 10 {
		t.Errorf("Drain returned %d, want 10", end)
	}
	if !forever.Done() || forever.State() != ProcDone {
		t.Errorf("parked proc is %v after Drain, want done", forever.State())
	}
	if !finisher.Done() {
		t.Errorf("finisher is %v, want done", finisher.State())
	}
	if !unwound {
		t.Error("released body did not run its deferred calls")
	}
	if k.Pending() != 0 || k.Now() != 10 {
		t.Errorf("Pending %d, Now %d after Drain; want 0, 10", k.Pending(), k.Now())
	}
	if k.live != nil {
		t.Errorf("proc %q still on the live list", k.live.Name())
	}
	if got := procGoroutines(); got != before {
		t.Errorf("%d proc goroutines after Drain, want %d", got, before)
	}
}

// TestRunUntilAndStopKeepParkedProcs: only a Drain that empties the queue
// ends the simulation. Run with a limit and a stopped Run leave a parked
// proc parked, and it can still be woken afterwards.
func TestRunUntilAndStopKeepParkedProcs(t *testing.T) {
	before := procGoroutines()
	k := NewKernel(1)
	var got uint64
	p := k.Go(0, "waiter", 0, func(p *Proc) { got = p.Park() })
	k.Run(100)
	if p.State() != ProcParked {
		t.Fatalf("after Run(100): %v, want parked", p.State())
	}
	k.Schedule(10, k.Stop)
	k.Run(0)
	if p.State() != ProcParked {
		t.Fatalf("after a stopped Run: %v, want parked", p.State())
	}
	if n := procGoroutines(); n != before+1 {
		t.Errorf("%d proc goroutines with the proc parked, want %d", n, before+1)
	}
	k.Schedule(10, func() { p.Wake(7) })
	k.Drain()
	if got != 7 || !p.Done() {
		t.Fatalf("woken after Stop: WakeVal %d, state %v; want 7, done", got, p.State())
	}
}

// TestWakeReleasedProcPanics: a released proc is done, so waking it
// panics exactly as waking a finished proc does.
func TestWakeReleasedProcPanics(t *testing.T) {
	k := NewKernel(1)
	p := k.Go(0, "forever", 0, parkForever(t))
	k.Drain()
	defer func() {
		r := recover()
		if msg, _ := r.(string); !strings.Contains(msg, "state done") {
			t.Fatalf("Wake on a released proc: recovered %v, want a state-done panic", r)
		}
	}()
	p.Wake(1)
}

// TestReleasedBodyRunsNoSimulationCode: while Drain releases, a body
// whose deferred calls reach the kernel unwinds instead of acting. A
// deferred Sleep, Schedule or Start leaves no event, a deferred Park
// leaves its proc done, and a deferred Wake wakes nobody, even a proc
// not yet released.
func TestReleasedBodyRunsNoSimulationCode(t *testing.T) {
	before := procGoroutines()
	k := NewKernel(1)
	other := k.Go(0, "other", 0, parkForever(t))
	unstarted := k.NewProc(1, "unstarted", func(p *Proc) { t.Error("deferred Start ran a body") })
	k.Go(2, "sleeper", 0, func(p *Proc) {
		defer p.Sleep(10)
		p.Park()
	})
	k.Go(3, "waker", 0, func(p *Proc) {
		defer other.Wake(1)
		p.Park()
	})
	k.Go(4, "scheduler", 0, func(p *Proc) {
		defer k.Schedule(5, func() { t.Error("event scheduled during release fired") })
		p.Park()
	})
	k.Go(5, "starter", 0, func(p *Proc) {
		defer unstarted.Start()
		p.Park()
	})
	parker := k.Go(6, "parker", 0, func(p *Proc) {
		defer p.Park()
		p.Park()
	})
	if end := k.Drain(); end != 0 {
		t.Errorf("Drain returned %d, want 0", end)
	}
	if k.Pending() != 0 {
		t.Errorf("Pending %d after Drain, want 0", k.Pending())
	}
	if unstarted.State() != ProcNew {
		t.Errorf("unstarted proc is %v, want new", unstarted.State())
	}
	if parker.State() != ProcDone {
		t.Errorf("proc with a deferred Park is %v, want done", parker.State())
	}
	if got := procGoroutines(); got != before {
		t.Errorf("%d proc goroutines after Drain, want %d", got, before)
	}
	k.Drain() // nothing left to run or release
}

// TestPanicDuringReleaseSurfacesFromDrain: Proc.run recovers the release
// sentinel and nothing else. A deferred call that panics, or calls
// runtime.Goexit, while its proc is released surfaces from Drain as it
// would from any Run.
func TestPanicDuringReleaseSurfacesFromDrain(t *testing.T) {
	t.Run("panic", func(t *testing.T) {
		k := NewKernel(1)
		boom := errors.New("boom")
		k.Go(0, "p", 0, func(p *Proc) {
			defer func() { panic(boom) }()
			p.Park()
		})
		got := func() (r any) {
			defer func() { r = recover() }()
			k.Drain()
			return nil
		}()
		if got != boom {
			t.Fatalf("Drain panicked with %v, want %v", got, boom)
		}
	})
	t.Run("Goexit", func(t *testing.T) {
		k := NewKernel(1)
		k.Go(0, "p", 0, func(p *Proc) {
			defer runtime.Goexit()
			p.Park()
		})
		returned := false
		done := make(chan struct{})
		go func() {
			defer close(done)
			k.Drain()
			returned = true
		}()
		<-done
		if returned {
			t.Fatal("Drain returned although a released body called Goexit")
		}
	})
}
