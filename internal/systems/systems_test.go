package systems

import (
	"testing"

	"lockin/internal/core"
	"lockin/internal/machine"
	"lockin/internal/power"
	"lockin/internal/workload"
)

const (
	testWarmup = 300_000
	testDur    = 8_000_000
)

func runDef(t *testing.T, d Definition, k core.Kind, seed int64) Result {
	t.Helper()
	return d.Run(machine.DefaultConfig(seed), workload.FactoryFor(k), testWarmup, testDur)
}

func TestCopyOnWriteListSpinVsSleep(t *testing.T) {
	// Figure 1: the spinlock version consumes more power than mutex but
	// achieves higher throughput.
	d := CopyOnWriteList(20)
	mutex := runDef(t, d, core.KindMutex, 1)
	spin := runDef(t, d, core.KindTTAS, 1)
	if spin.Throughput() <= mutex.Throughput() {
		t.Fatalf("spinlock throughput (%.0f) should beat mutex (%.0f)",
			spin.Throughput(), mutex.Throughput())
	}
	if spin.Power().Total <= mutex.Power().Total {
		t.Fatalf("spinlock power (%.1f W) should exceed mutex (%.1f W)",
			spin.Power().Total, mutex.Power().Total)
	}
}

func TestMemoryStressPowerScalesWithThreads(t *testing.T) {
	run := func(n int) float64 {
		d := MemoryStress(n, power.VFMax)
		r := d.Run(machine.DefaultConfig(1), workload.FactoryFor(core.KindMutex), testWarmup, 2_000_000)
		return r.Power().Total
	}
	p0, p10, p40 := run(1), run(10), run(40)
	if !(p0 < p10 && p10 < p40) {
		t.Fatalf("power not increasing: %.1f %.1f %.1f", p0, p10, p40)
	}
	if p40 < 150 || p40 > 235 {
		t.Fatalf("full-machine power %.1f W, want ≈200", p40)
	}
}

func TestMemoryStressVFMinDrawsLess(t *testing.T) {
	run := func(vf power.VF) float64 {
		d := MemoryStress(40, vf)
		r := d.Run(machine.DefaultConfig(1), workload.FactoryFor(core.KindMutex), testWarmup, 2_000_000)
		return r.Power().Total
	}
	if min, max := run(power.VFMin), run(power.VFMax); min >= max {
		t.Fatalf("VF-min power %.1f W not below VF-max %.1f W", min, max)
	}
}

func TestWaitingStressPowerOrdering(t *testing.T) {
	// Figure 3: sleeping ≪ busy-waiting power; mbar < pause.
	runPol := func(d Definition) float64 {
		r := d.Run(machine.DefaultConfig(1), workload.FactoryFor(core.KindMutex), testWarmup, 2_000_000)
		return r.Power().Total
	}
	sleep := runPol(SleepingStress(40))
	mbar := runPol(WaitingStress(40, machine.WaitMbar, testWarmup+3_000_000))
	pause := runPol(WaitingStress(40, machine.WaitPause, testWarmup+3_000_000))
	if !(sleep < mbar && mbar < pause) {
		t.Fatalf("power ordering sleep %.1f, mbar %.1f, pause %.1f", sleep, mbar, pause)
	}
	// Sleeping with everything parked should approach idle power.
	if sleep > 70 {
		t.Fatalf("sleeping power %.1f W, want near idle 55.5", sleep)
	}
}
