package experiments

import (
	"testing"

	"lockin/internal/core"
	"lockin/internal/machine"
	"lockin/internal/power"
	"lockin/internal/sim"
	"lockin/internal/workload"
)

const stressWarmup = 300_000

// runStress measures body at seed 1 over dur cycles after the
// stress tests' warm-up, at scale 1.
func runStress(body func(*workload.Runner), dur sim.Cycles) workload.Result {
	return stress(Options{}, machine.DefaultConfig(1), stressWarmup, dur, body)
}

func TestCopyOnWriteListSpinVsSleep(t *testing.T) {
	// Figure 1: the spinlock version consumes more power than mutex but
	// achieves higher throughput.
	mutex := runStress(copyOnWriteList(20, workload.FactoryFor(core.KindMutex)), 8_000_000)
	spin := runStress(copyOnWriteList(20, workload.FactoryFor(core.KindTTAS)), 8_000_000)
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
		return runStress(memoryStress(n, power.VFMax), 2_000_000).Power().Total
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
		return runStress(memoryStress(40, vf), 2_000_000).Power().Total
	}
	if min, max := run(power.VFMin), run(power.VFMax); min >= max {
		t.Fatalf("VF-min power %.1f W not below VF-max %.1f W", min, max)
	}
}

func TestWaitingStressPowerOrdering(t *testing.T) {
	// Figure 3: sleeping ≪ busy-waiting power; mbar < pause.
	runPol := func(body func(*workload.Runner)) float64 {
		return runStress(body, 2_000_000).Power().Total
	}
	sleep := runPol(sleepingStress(40))
	mbar := runPol(waitingStress(40, machine.WaitMbar, stressWarmup+3_000_000))
	pause := runPol(waitingStress(40, machine.WaitPause, stressWarmup+3_000_000))
	if !(sleep < mbar && mbar < pause) {
		t.Fatalf("power ordering sleep %.1f, mbar %.1f, pause %.1f", sleep, mbar, pause)
	}
	// Sleeping with everything parked should approach idle power.
	if sleep > 70 {
		t.Fatalf("sleeping power %.1f W, want near idle 55.5", sleep)
	}
}
