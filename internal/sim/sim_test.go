package sim

import (
	"testing"
	"testing/quick"
)

func TestKernelRunsEventsInOrder(t *testing.T) {
	k := NewKernel(1)
	var order []int
	k.Schedule(30, func() { order = append(order, 3) })
	k.Schedule(10, func() { order = append(order, 1) })
	k.Schedule(20, func() { order = append(order, 2) })
	k.Drain()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("wrong order: %v", order)
	}
	if k.Now() != 30 {
		t.Fatalf("clock = %d, want 30", k.Now())
	}
}

func TestKernelSameTimeFIFO(t *testing.T) {
	k := NewKernel(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		k.Schedule(5, func() { order = append(order, i) })
	}
	k.Drain()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-timestamp events not FIFO: %v", order)
		}
	}
}

func TestKernelCancel(t *testing.T) {
	k := NewKernel(1)
	fired := false
	e := k.Schedule(10, func() { fired = true })
	k.Cancel(e)
	k.Cancel(e) // idempotent
	k.Cancel(Event{})
	k.Drain()
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestKernelRunUntil(t *testing.T) {
	k := NewKernel(1)
	var fired []Cycles
	for _, d := range []Cycles{10, 20, 30, 40} {
		d := d
		k.Schedule(d, func() { fired = append(fired, d) })
	}
	k.Run(25)
	if len(fired) != 2 {
		t.Fatalf("fired %v, want events at 10,20 only", fired)
	}
	if k.Now() != 25 {
		t.Fatalf("clock = %d, want 25", k.Now())
	}
	k.Run(0)
	if len(fired) != 4 {
		t.Fatalf("resume failed: %v", fired)
	}
}

func TestKernelRunUntilEmptyQueueAdvancesClock(t *testing.T) {
	k := NewKernel(1)
	k.Run(100)
	if k.Now() != 100 {
		t.Fatalf("clock = %d, want 100", k.Now())
	}
}

func TestKernelStop(t *testing.T) {
	k := NewKernel(1)
	n := 0
	k.Schedule(1, func() { n++; k.Stop() })
	k.Schedule(2, func() { n++ })
	k.Run(0)
	if n != 1 {
		t.Fatalf("Stop did not halt the loop: n=%d", n)
	}
}

func TestEventsScheduledDuringRun(t *testing.T) {
	k := NewKernel(1)
	var trace []Cycles
	k.Schedule(10, func() {
		trace = append(trace, k.Now())
		k.Schedule(5, func() { trace = append(trace, k.Now()) })
	})
	k.Drain()
	if len(trace) != 2 || trace[0] != 10 || trace[1] != 15 {
		t.Fatalf("nested scheduling broken: %v", trace)
	}
}

func TestProcSleepInterleaving(t *testing.T) {
	k := NewKernel(1)
	var trace []string
	mk := func(name string, step Cycles) func(*Proc) {
		return func(p *Proc) {
			for i := 0; i < 3; i++ {
				p.Sleep(step)
				trace = append(trace, name)
			}
		}
	}
	k.Go(0, "a", 0, mk("a", 10))
	k.Go(1, "b", 0, mk("b", 15))
	k.Drain()
	// a wakes at 10,20,30; b at 15,30,45. At t=30 b's wake fires first
	// because it was scheduled earlier (lower sequence number).
	want := []string{"a", "b", "a", "b", "a", "b"}
	if len(trace) != len(want) {
		t.Fatalf("trace %v", trace)
	}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace %v, want %v", trace, want)
		}
	}
}

func TestProcParkWake(t *testing.T) {
	k := NewKernel(1)
	var got uint64
	var waiter *Proc
	waiter = k.NewProc(0, "waiter", func(p *Proc) {
		got = p.Park()
	})
	k.Schedule(0, func() { waiter.Start() })
	k.Schedule(50, func() { waiter.Wake(42) })
	k.Drain()
	if got != 42 {
		t.Fatalf("WakeVal = %d, want 42", got)
	}
	if !waiter.Done() {
		t.Fatal("waiter not done")
	}
}

func TestProcWakeFromOtherProc(t *testing.T) {
	k := NewKernel(1)
	var order []string
	var a *Proc
	a = k.NewProc(0, "a", func(p *Proc) {
		p.Park()
		order = append(order, "a-woken")
	})
	k.Go(1, "b", 0, func(p *Proc) {
		p.Sleep(10)
		order = append(order, "b-before-wake")
		a.Wake(1)
		order = append(order, "b-after-wake")
	})
	k.Schedule(0, func() { a.Start() })
	k.Drain()
	want := []string{"b-before-wake", "a-woken", "b-after-wake"}
	if len(order) != 3 {
		t.Fatalf("order %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order %v, want %v", order, want)
		}
	}
}

func TestWakeAtCancellable(t *testing.T) {
	k := NewKernel(1)
	woken := false
	p := k.NewProc(0, "p", func(p *Proc) {
		v := p.Park()
		woken = true
		if v != 7 {
			t.Errorf("WakeVal = %d, want 7", v)
		}
	})
	k.Schedule(0, func() { p.Start() })
	k.Schedule(1, func() {
		timer := p.WakeAt(100, 99)
		k.Cancel(timer)
		p.WakeAt(10, 7)
	})
	k.Drain()
	if !woken {
		t.Fatal("never woken")
	}
}

func TestProcStates(t *testing.T) {
	k := NewKernel(1)
	p := k.NewProc(0, "p", func(p *Proc) { p.Sleep(5) })
	if p.State() != ProcNew {
		t.Fatalf("state %v, want new", p.State())
	}
	k.Schedule(0, func() { p.Start() })
	k.Run(1)
	if p.State() != ProcParked {
		t.Fatalf("state %v, want parked", p.State())
	}
	k.Drain()
	if p.State() != ProcDone {
		t.Fatalf("state %v, want done", p.State())
	}
	for _, s := range []ProcState{ProcNew, ProcRunning, ProcParked, ProcDone, ProcState(77)} {
		if s.String() == "" {
			t.Fatal("empty state string")
		}
	}
}

func TestDeterminismSameSeed(t *testing.T) {
	run := func(seed int64) []uint64 {
		k := NewKernel(seed)
		var out []uint64
		for i := 0; i < 4; i++ {
			i := i
			k.Go(i, "w", 0, func(p *Proc) {
				for j := 0; j < 50; j++ {
					p.Sleep(Cycles(1 + p.Kernel().Rand().Intn(100)))
					out = append(out, uint64(i)<<32|uint64(p.Now()))
				}
			})
		}
		k.Drain()
		return out
	}
	a, b := run(42), run(42)
	if len(a) != len(b) {
		t.Fatal("length mismatch")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("diverged at %d", i)
		}
	}
	c := run(43)
	same := len(a) == len(c)
	if same {
		diff := false
		for i := range a {
			if a[i] != c[i] {
				diff = true
				break
			}
		}
		if !diff {
			t.Fatal("different seeds produced identical traces")
		}
	}
}

func TestClockMonotonicProperty(t *testing.T) {
	// Property: regardless of scheduling pattern, observed event times are
	// non-decreasing.
	f := func(delays []uint16) bool {
		if len(delays) > 200 {
			delays = delays[:200]
		}
		k := NewKernel(7)
		var times []Cycles
		for _, d := range delays {
			k.Schedule(Cycles(d), func() { times = append(times, k.Now()) })
		}
		k.Drain()
		for i := 1; i < len(times); i++ {
			if times[i] < times[i-1] {
				return false
			}
		}
		return len(times) == len(delays)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestManyProcsDrainCleanly(t *testing.T) {
	k := NewKernel(3)
	total := 0
	for i := 0; i < 100; i++ {
		k.Go(i, "w", Cycles(i), func(p *Proc) {
			for j := 0; j < 10; j++ {
				p.Sleep(7)
			}
			total++
		})
	}
	k.Drain()
	if total != 100 {
		t.Fatalf("finished %d/100 procs", total)
	}
}

// TestPanicsSurfaceFromRun pins panic propagation: wherever a proc body
// or an event callback panics — on Run's goroutine or inside a proc's
// coroutine, however deeply nested — the panic surfaces from Kernel.Run
// with its original value.
func TestPanicsSurfaceFromRun(t *testing.T) {
	cases := []struct {
		name  string
		setup func(t *testing.T, k *Kernel, boom any)
	}{
		{"proc body", func(t *testing.T, k *Kernel, boom any) {
			k.Go(0, "p", 0, func(p *Proc) {
				p.Sleep(10)
				panic(boom)
			})
		}},
		{"callback run by a driving proc", func(t *testing.T, k *Kernel, boom any) {
			p := k.Go(0, "p", 0, func(p *Proc) {
				p.Sleep(10)  // resumed by Run: p drives from here on
				p.Sleep(100) // executes the t=50 callback inside its park
			})
			k.Schedule(50, func() {
				if k.driver != p {
					t.Errorf("callback ran with driver %v, want proc p", k.driver)
				}
				panic(boom)
			})
		}},
		{"proc resumed by a synchronous Wake", func(t *testing.T, k *Kernel, boom any) {
			a := k.Go(0, "a", 0, func(p *Proc) {
				p.Park()
				panic(boom)
			})
			k.Go(1, "b", 0, func(p *Proc) {
				p.Sleep(10)
				a.Wake(1)
				t.Error("Wake returned after the woken proc panicked")
			})
		}},
		{"Start", func(t *testing.T, k *Kernel, boom any) {
			k.Go(0, "p", 0, func(p *Proc) { panic(boom) })
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			k := NewKernel(1)
			boom := &struct{ name string }{tc.name}
			tc.setup(t, k, boom)
			got := func() (r any) {
				defer func() { r = recover() }()
				k.Drain()
				return nil
			}()
			if got != boom {
				t.Fatalf("Run panicked with %v, want %v", got, boom)
			}
		})
	}
}
