package sched

import (
	"testing"

	"lockin/internal/power"
	"lockin/internal/sim"
	"lockin/internal/topo"
)

func newSched(seed int64) (*sim.Kernel, *power.Meter, *Scheduler) {
	k := sim.NewKernel(seed)
	m := power.NewMeter(k, power.DefaultConfig(), topo.Xeon())
	s := New(k, DefaultConfig(), topo.Xeon(), m)
	return k, m, s
}

func TestSpawnRunsBody(t *testing.T) {
	k, _, s := newSched(1)
	done := false
	s.Spawn("w", func(th *Thread) {
		th.Run(1000)
		done = true
	})
	k.Drain()
	if !done {
		t.Fatal("body never ran")
	}
	if s.Live() != 0 {
		t.Fatalf("live = %d, want 0", s.Live())
	}
}

func TestPinnedPlacement(t *testing.T) {
	k, _, s := newSched(1)
	ctxs := make([]int, 8)
	for i := 0; i < 8; i++ {
		i := i
		s.Spawn("w", func(th *Thread) {
			ctxs[i] = th.Ctx()
			th.Run(100)
		})
	}
	k.Drain()
	for i, c := range ctxs {
		if c != i {
			t.Fatalf("thread %d ran on ctx %d, want pinned to %d", i, c, i)
		}
	}
}

func TestRunConsumesVirtualTime(t *testing.T) {
	k, _, s := newSched(1)
	var end sim.Cycles
	s.Spawn("w", func(th *Thread) {
		th.Run(10_000)
		end = th.Proc().Now()
	})
	k.Drain()
	// Dispatch latency + 10_000 of work.
	if end < 10_000 || end > 30_000 {
		t.Fatalf("thread finished at %d, want ≈10-16K", end)
	}
}

func TestBlockUnblock(t *testing.T) {
	k, _, s := newSched(1)
	var blocked *Thread
	var wakeToken uint64
	blockedAt := sim.Cycles(0)
	resumedAt := sim.Cycles(0)
	blocked = s.Spawn("sleeper", func(th *Thread) {
		th.Run(100)
		blockedAt = th.Proc().Now()
		wakeToken = th.Block()
		resumedAt = th.Proc().Now()
	})
	s.Spawn("waker", func(th *Thread) {
		th.Run(50_000)
		s.Unblock(blocked, 1000)
	})
	k.Drain()
	if wakeToken != 0 {
		t.Fatalf("token %d", wakeToken)
	}
	if resumedAt <= blockedAt+1000 {
		t.Fatalf("resumed too early: blocked %d resumed %d", blockedAt, resumedAt)
	}
	// Wake latency should include extraDelay + idle exit + sched delay.
	lat := resumedAt - 50_000
	if lat < 1000+2000 || lat > 3_000_000 {
		t.Fatalf("wake latency %d out of band", lat)
	}
}

func TestDeepIdleExitLatencyAfterLongSleep(t *testing.T) {
	_, _, s := newSched(1)
	k := s.Kernel()
	var th *Thread
	var resumedAt, wokenAt sim.Cycles
	th = s.Spawn("sleeper", func(x *Thread) {
		x.Run(10)
		x.Block()
		resumedAt = x.Proc().Now()
	})
	// Wake long after the deep-idle threshold.
	k.Schedule(2_000_000, func() {
		wokenAt = k.Now()
		s.Unblock(th, 0)
	})
	k.Drain()
	lat := resumedAt - wokenAt
	cfg := DefaultConfig()
	if lat < cfg.ExitDeep {
		t.Fatalf("deep-idle wake latency %d, want ≥ %d", lat, cfg.ExitDeep)
	}
}

func TestShallowVsDeepWakeLatency(t *testing.T) {
	measure := func(sleep sim.Cycles) sim.Cycles {
		_, _, s := newSched(1)
		k := s.Kernel()
		var th *Thread
		var resumedAt, wokenAt sim.Cycles
		th = s.Spawn("sleeper", func(x *Thread) {
			x.Run(10)
			x.Block()
			resumedAt = x.Proc().Now()
		})
		k.Schedule(sleep, func() { wokenAt = k.Now(); s.Unblock(th, 0) })
		k.Drain()
		return resumedAt - wokenAt
	}
	short := measure(50_000)
	long := measure(5_000_000)
	if long <= short*5 {
		t.Fatalf("deep wake (%d) should dwarf shallow wake (%d)", long, short)
	}
}

func TestOversubscriptionPreemption(t *testing.T) {
	k, _, s := newSched(1)
	n := topo.Xeon().NumContexts() + 10
	finished := 0
	for i := 0; i < n; i++ {
		s.Spawn("w", func(th *Thread) {
			th.Run(20_000_000) // > 3 timeslices
			finished++
		})
	}
	k.Drain()
	if finished != n {
		t.Fatalf("finished %d/%d", finished, n)
	}
	var preempted uint64
	for _, th := range s.threads {
		preempted += th.Preemptions
	}
	if preempted == 0 {
		t.Fatal("oversubscribed run had no preemptions")
	}
}

func TestNoPreemptionWhenUndersubscribed(t *testing.T) {
	k, _, s := newSched(1)
	s.Spawn("w", func(th *Thread) { th.Run(50_000_000) })
	k.Drain()
	if s.threads[0].Preemptions != 0 {
		t.Fatalf("undersubscribed thread preempted %d times", s.threads[0].Preemptions)
	}
}

// TestYieldHandsOverContext: with every context taken, a thread that
// waits in the run queue gets the context a short thread hands over when
// it exits, while the long runners keep theirs.
func TestYieldHandsOverContext(t *testing.T) {
	k, _, s := newSched(1)
	// Fill all contexts with long runners, plus one extra thread.
	n := topo.Xeon().NumContexts()
	var extraRan bool
	for i := 0; i < n-1; i++ {
		s.Spawn("filler", func(th *Thread) { th.Run(30_000_000) })
	}
	s.Spawn("yielder", func(th *Thread) {
		th.Run(100)
		th.Run(100)
	})
	s.Spawn("extra", func(th *Thread) {
		th.Run(100)
		extraRan = true
	})
	k.Drain()
	if !extraRan {
		t.Fatal("extra thread starved")
	}
}

func TestActivityAppliedToMeter(t *testing.T) {
	k, m, s := newSched(1)
	s.Spawn("w", func(th *Thread) {
		th.SetActivity(power.SpinMbar)
		th.Run(1000)
		if got := m.Activity(th.Ctx()); got != power.SpinMbar {
			t.Errorf("meter activity %v, want spin-mbar", got)
		}
		th.Run(1000)
	})
	k.Drain()
	// After exit the context must be idle.
	if a := m.Activity(0); !a.IsIdle() {
		t.Fatalf("context activity after exit = %v, want idle", a)
	}
}

func TestVFAppliedAndRestored(t *testing.T) {
	k, m, s := newSched(1)
	s.Spawn("w", func(th *Thread) {
		th.SetVF(power.VFMin)
		th.Run(1000)
		if m.VFOf(th.Ctx()) != power.VFMin {
			t.Error("VF not applied")
		}
	})
	k.Drain()
	if m.VFOf(0) != power.VFMax {
		t.Fatal("VF not restored to max when context idled")
	}
}

func TestRunQueueFIFO(t *testing.T) {
	k, _, s := newSched(1)
	n := topo.Xeon().NumContexts()
	var order []int
	for i := 0; i < n; i++ {
		s.Spawn("filler", func(th *Thread) { th.Run(10_000_000) })
	}
	for i := 0; i < 5; i++ {
		i := i
		s.Spawn("queued", func(th *Thread) {
			order = append(order, i)
			th.Run(100)
		})
	}
	k.Drain()
	for i := 1; i < len(order); i++ {
		if order[i] < order[i-1] {
			t.Fatalf("run queue not FIFO: %v", order)
		}
	}
}

func TestChargeSliceTriggersLaterPreemption(t *testing.T) {
	k, _, s := newSched(1)
	var th *Thread
	th = s.Spawn("w", func(x *Thread) {
		x.Run(100)
		x.ChargeSlice(x.SliceLeft()) // burn the whole quantum
		if x.SliceLeft() != 0 {
			t.Error("slice not zero after ChargeSlice")
		}
		x.Run(100) // must refill without oversubscription
	})
	k.Drain()
	if th.State() != Exited {
		t.Fatalf("state %v", th.State())
	}
}

func TestStateString(t *testing.T) {
	for _, st := range []State{Ready, Dispatching, Running, Blocked, Exited, State(42)} {
		if st.String() == "" {
			t.Fatal("empty state name")
		}
	}
}

func TestManyThreadsManyBlocksDeterministic(t *testing.T) {
	run := func() sim.Cycles {
		k, _, s := newSched(7)
		var ts []*Thread
		for i := 0; i < 50; i++ {
			th := s.Spawn("w", func(x *Thread) {
				for j := 0; j < 20; j++ {
					x.Run(5000)
					x.Block()
				}
			})
			ts = append(ts, th)
		}
		// A waker pulse that unblocks everyone repeatedly.
		s.Spawn("waker", func(x *Thread) {
			for j := 0; j < 20; j++ {
				x.Run(400_000)
				for _, th := range ts {
					if th.State() == Blocked {
						s.Unblock(th, 0)
					}
				}
			}
		})
		return k.Drain()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("nondeterministic end time: %d vs %d", a, b)
	}
}
