package machine

import (
	"testing"

	"lockin/internal/power"
	"lockin/internal/sim"
	"lockin/internal/topo"
)

func TestComputeAdvancesClock(t *testing.T) {
	m := NewDefault(1)
	var end sim.Cycles
	m.Spawn("w", func(th *Thread) {
		th.Compute(10_000)
		end = th.Proc().Now()
	})
	m.K.Drain()
	if end < 10_000 {
		t.Fatalf("clock %d after 10K compute", end)
	}
}

func TestMemoryOpsSemantics(t *testing.T) {
	m := NewDefault(1)
	l := m.NewLine("x")
	m.Spawn("w", func(th *Thread) {
		th.Store(l, 5)
		if v := th.Load(l); v != 5 {
			t.Errorf("load %d, want 5", v)
		}
		if !th.CAS(l, 5, 9) {
			t.Error("CAS 5->9 failed")
		}
		if th.CAS(l, 5, 11) {
			t.Error("stale CAS succeeded")
		}
		if old := th.Swap(l, 20); old != 9 {
			t.Errorf("swap old %d, want 9", old)
		}
		if old := th.FetchAdd(l, 3); old != 20 {
			t.Errorf("fetchadd old %d, want 20", old)
		}
		if v := th.Load(l); v != 23 {
			t.Errorf("final %d, want 23", v)
		}
	})
	m.K.Drain()
}

func TestSpinUntilWakesOnStore(t *testing.T) {
	m := NewDefault(1)
	l := m.NewLine("flag")
	var observedAt sim.Cycles
	m.Spawn("spinner", func(th *Thread) {
		th.Store(l, 0)
		v := th.SpinUntil(l, func(v uint64) bool { return v == 1 }, WaitMbar)
		if v != 1 {
			t.Errorf("observed %d, want 1", v)
		}
		observedAt = th.Proc().Now()
	})
	m.Spawn("setter", func(th *Thread) {
		th.Compute(100_000)
		th.Store(l, 1)
	})
	m.K.Drain()
	if observedAt < 100_000 || observedAt > 110_000 {
		t.Fatalf("spinner observed at %d, want shortly after 100K", observedAt)
	}
}

func TestSpinUntilLimitGivesUp(t *testing.T) {
	m := NewDefault(1)
	l := m.NewLine("flag")
	var ok bool
	var spent sim.Cycles
	m.Spawn("spinner", func(th *Thread) {
		th.Store(l, 0)
		start := th.Proc().Now()
		_, ok = th.SpinUntilLimit(l, func(v uint64) bool { return v == 1 }, WaitMbar, 50_000)
		spent = th.Proc().Now() - start
	})
	m.K.Drain()
	if ok {
		t.Fatal("spin reported success on a flag never set")
	}
	if spent < 50_000 || spent > 80_000 {
		t.Fatalf("spin budget spent %d, want ≈50K", spent)
	}
}

func TestSpinPowerChargedAtPolicyRate(t *testing.T) {
	// Spinning threads must draw policy-specific power during the epoch.
	run := func(pol WaitPolicy) float64 {
		m := NewDefault(1)
		l := m.NewLine("flag")
		for i := 0; i < 40; i++ {
			m.Spawn("spinner", func(th *Thread) {
				th.SpinUntilLimit(l, func(v uint64) bool { return v == 1 }, pol, 2_000_000)
			})
		}
		e0 := m.Meter.Energy()
		start := m.K.Now()
		m.K.Run(2_000_000)
		return m.Meter.Energy().Sub(e0).Power(m.K.Now()-start, m.Config().Power.BaseFreqGHz).Total
	}
	local := run(WaitLocal)
	pause := run(WaitPause)
	mbar := run(WaitMbar)
	mwait := run(WaitMwait)
	if !(pause > local && local > mbar && mbar > mwait) {
		t.Fatalf("power ordering wrong: pause %.1f local %.1f mbar %.1f mwait %.1f",
			pause, local, mbar, mwait)
	}
}

func TestGlobalSpinTracksPollers(t *testing.T) {
	m := NewDefault(1)
	l := m.NewLine("lock")
	m.Spawn("holder", func(th *Thread) {
		th.Store(l, 1)
		th.Compute(500_000)
	})
	for i := 0; i < 5; i++ {
		m.Spawn("poller", func(th *Thread) {
			th.Compute(1000)
			th.SpinUntilLimit(l, func(v uint64) bool { return v == 0 }, WaitGlobal, 100_000)
		})
	}
	m.K.Run(50_000)
	if l.Pollers() != 5 {
		t.Fatalf("pollers %d, want 5", l.Pollers())
	}
	m.K.Drain()
	if l.Pollers() != 0 {
		t.Fatalf("pollers %d after drain, want 0", l.Pollers())
	}
}

func TestCPIReporting(t *testing.T) {
	m := NewDefault(1)
	l := m.NewLine("flag")
	m.Spawn("spinner", func(th *Thread) {
		th.SpinUntilLimit(l, func(v uint64) bool { return v == 1 }, WaitPause, 1_000_000)
	})
	m.K.Drain()
	cpi := m.CPI(power.SpinPause)
	if cpi < 4.0 || cpi > 5.5 {
		t.Fatalf("pause CPI %.2f, want ≈4.6", cpi)
	}
	if m.CPI(power.SpinGlobal) != 0 {
		t.Fatal("CPI for unused activity should be 0")
	}
}

func TestDVFSSpinSlowsAndRestores(t *testing.T) {
	m := NewDefault(1)
	l := m.NewLine("flag")
	var vfDuring power.VF
	m.Spawn("spinner", func(th *Thread) {
		th.SpinUntilLimit(l, func(v uint64) bool { return v == 1 }, WaitDVFS, 200_000)
		vfDuring = th.VF() // after wait: must be restored
	})
	m.K.Drain()
	if vfDuring != power.VFMax {
		t.Fatal("VF not restored after DVFS spin")
	}
}

func TestSpinPreemptionUnderOversubscription(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.Topo = topo.Topology{Sockets: 1, CoresPerSocket: 2, ThreadsPerCore: 1}
	cfg.Sched.Timeslice = 100_000
	m := New(cfg)
	l := m.NewLine("flag")
	spinnerDone := false
	m.Spawn("holder", func(th *Thread) {
		th.Store(l, 1)
		th.Compute(1_000_000)
		th.Store(l, 0)
	})
	var spinner *Thread
	spinner = m.Spawn("spinner", func(th *Thread) {
		th.SpinUntil(l, func(v uint64) bool { return v == 0 }, WaitMbar)
		spinnerDone = true
	})
	// A third runnable thread forces oversubscription on 2 contexts.
	m.Spawn("other", func(th *Thread) {
		for i := 0; i < 20; i++ {
			th.Compute(100_000)
		}
	})
	m.K.Drain()
	if !spinnerDone {
		t.Fatal("spinner never observed the release")
	}
	if spinner.Preemptions == 0 {
		t.Fatal("oversubscribed spinner was never preempted")
	}
}

func TestFutexThroughMachine(t *testing.T) {
	m := NewDefault(1)
	l := m.NewLine("lockword")
	w := m.NewFutexWord(l)
	var woken bool
	m.Spawn("sleeper", func(th *Thread) {
		th.Store(l, 1)
		if th.FutexWait(w, 1, 0) == 0 { // futex.Woken == 0
			woken = true
		}
	})
	m.Spawn("waker", func(th *Thread) {
		th.Compute(100_000)
		th.Store(l, 0)
		th.FutexWake(w, 1)
	})
	m.K.Drain()
	if !woken {
		t.Fatal("futex round trip through machine failed")
	}
}

func TestWaitPolicyStrings(t *testing.T) {
	for _, p := range []WaitPolicy{WaitLocal, WaitPause, WaitMbar, WaitGlobal, WaitMwait, WaitDVFS, WaitPolicy(9)} {
		if p.String() == "" {
			t.Fatal("empty policy name")
		}
		_ = p.Activity()
	}
}

func TestDeterministicMachineRuns(t *testing.T) {
	run := func() sim.Cycles {
		m := NewDefault(99)
		l := m.NewLine("lock")
		for i := 0; i < 10; i++ {
			m.Spawn("w", func(th *Thread) {
				for j := 0; j < 50; j++ {
					for !th.CAS(l, 0, 1) {
						th.SpinUntilLimit(l, func(v uint64) bool { return v == 0 }, WaitMbar, 10_000)
					}
					th.Compute(500)
					th.Store(l, 0)
					th.Compute(200)
				}
			})
		}
		return m.K.Drain()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("nondeterministic: %d vs %d", a, b)
	}
}

// TestReleasedSpinnerPaysNoExitCost: threads still spinning when Drain
// ends the simulation are released without running simulation code. A
// DVFS spinner keeps its VF-min point and an mwait spinner its mwait
// activity, and the energy counters read what the last event left, so
// the exit cost SpinUntilLimit pays on return is never paid by a
// released thread.
func TestReleasedSpinnerPaysNoExitCost(t *testing.T) {
	m := NewDefault(1)
	l := m.NewLine("never")
	never := func(v uint64) bool { return v == 1 }
	dvfs := m.Spawn("dvfs", func(th *Thread) { th.SpinUntil(l, never, WaitDVFS) })
	mwait := m.Spawn("mwait", func(th *Thread) { th.SpinUntil(l, never, WaitMwait) })
	m.K.Run(1_000_000)
	before := m.Meter.Energy()
	m.K.Drain()
	if !dvfs.Proc().Done() || !mwait.Proc().Done() {
		t.Fatalf("spinners %v and %v after Drain, want both released", dvfs.Proc().State(), mwait.Proc().State())
	}
	if vf := dvfs.VF(); vf != power.VFMin || m.Meter.VFOf(dvfs.Ctx()) != power.VFMin {
		t.Errorf("released DVFS spinner at %v, want VF-min", vf)
	}
	if a := mwait.Activity(); a != WaitMwait.Activity() {
		t.Errorf("released mwait spinner's activity %v, want %v", a, WaitMwait.Activity())
	}
	if after := m.Meter.Energy(); after != before {
		t.Errorf("energy %+v after Drain, want %+v", after, before)
	}
}
