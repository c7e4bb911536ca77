package power

import (
	"math"
	"testing"
	"testing/quick"

	"lockin/internal/sim"
	"lockin/internal/topo"
)

func newMeter() (*sim.Kernel, *Meter) {
	k := sim.NewKernel(1)
	return k, NewMeter(k, DefaultConfig(), topo.Xeon())
}

func powerOver(k *sim.Kernel, m *Meter, d sim.Cycles) Breakdown {
	e0 := m.Energy()
	start := k.Now()
	k.Schedule(d, func() {})
	k.Run(start + d)
	return m.Energy().Sub(e0).Power(d, m.Config().BaseFreqGHz)
}

func TestIdlePowerMatchesPaper(t *testing.T) {
	k, m := newMeter()
	p := powerOver(k, m, 1_000_000)
	// Paper: 55.5 W idle (30.5 W packages + 25 W DRAM background).
	if math.Abs(p.Total-55.5) > 1.0 {
		t.Fatalf("idle power %.1f W, want ≈55.5", p.Total)
	}
	if math.Abs(p.DRAM-25.0) > 0.5 {
		t.Fatalf("idle DRAM %.1f W, want 25", p.DRAM)
	}
}

func TestFirstCoreActivationCost(t *testing.T) {
	k, m := newMeter()
	idle := powerOver(k, m, 1_000_000)
	m.SetActivity(0, MemStress)
	one := powerOver(k, m, 1_000_000)
	delta := one.Package - idle.Package
	// Paper: 13.6 W package for the first active core at VF-max.
	if delta < 10 || delta > 16 {
		t.Fatalf("first-core package delta %.1f W, want ≈13.6", delta)
	}
	m.SetActivity(1, MemStress)
	two := powerOver(k, m, 1_000_000)
	delta2 := two.Package - one.Package
	// Paper: ≈5.6 W for the second core (no uncore activation).
	if delta2 < 3.5 || delta2 > 7 {
		t.Fatalf("second-core package delta %.1f W, want ≈5.6", delta2)
	}
	if delta2 >= delta {
		t.Fatal("second core should cost less than the first (uncore)")
	}
}

func TestMaxPowerEnvelope(t *testing.T) {
	k, m := newMeter()
	for ctx := 0; ctx < topo.Xeon().NumContexts(); ctx++ {
		m.SetActivity(ctx, MemStress)
	}
	p := powerOver(k, m, 1_000_000)
	// Paper: ≈206 W peak. Accept the 180–230 band.
	if p.Total < 180 || p.Total > 230 {
		t.Fatalf("max power %.1f W, want ≈206", p.Total)
	}
	if p.DRAM < 55 || p.DRAM > 85 {
		t.Fatalf("max DRAM %.1f W, want ≈74", p.DRAM)
	}
	if p.Package < p.Cores {
		t.Fatal("package power must include core power")
	}
}

func TestPauseCostsMoreThanLocalSpin(t *testing.T) {
	k, m := newMeter()
	for ctx := 0; ctx < 40; ctx++ {
		m.SetActivity(ctx, SpinLocal)
	}
	local := powerOver(k, m, 1_000_000)
	for ctx := 0; ctx < 40; ctx++ {
		m.SetActivity(ctx, SpinPause)
	}
	pause := powerOver(k, m, 1_000_000)
	for ctx := 0; ctx < 40; ctx++ {
		m.SetActivity(ctx, SpinMbar)
	}
	mbar := powerOver(k, m, 1_000_000)
	if pause.Total <= local.Total {
		t.Fatalf("pause (%.1f) should cost more than local (%.1f)", pause.Total, local.Total)
	}
	if mbar.Total >= pause.Total {
		t.Fatalf("mbar (%.1f) should cost less than pause (%.1f)", mbar.Total, pause.Total)
	}
	if mbar.Total >= local.Total {
		t.Fatalf("mbar (%.1f) should undercut plain local spinning (%.1f)", mbar.Total, local.Total)
	}
	// Paper: pause increases power by up to ≈4 %.
	ratio := pause.Total / local.Total
	if ratio > 1.06 {
		t.Fatalf("pause/local ratio %.3f too large", ratio)
	}
}

func TestMwaitReducesPower(t *testing.T) {
	k, m := newMeter()
	for ctx := 0; ctx < 40; ctx++ {
		m.SetActivity(ctx, SpinMbar)
	}
	spin := powerOver(k, m, 1_000_000)
	for ctx := 0; ctx < 40; ctx++ {
		m.SetActivity(ctx, Mwait)
	}
	mw := powerOver(k, m, 1_000_000)
	// Paper: mwait reduces busy-wait power by up to 1.5×. Compare the
	// dynamic (above-idle) component.
	idle := 55.5
	ratio := (spin.Total - idle) / (mw.Total - idle)
	if ratio < 1.3 || ratio > 3.5 {
		t.Fatalf("spin/mwait dynamic-power ratio %.2f, want ≈1.5-3", ratio)
	}
}

func TestDVFSSpinPowerRatio(t *testing.T) {
	k, m := newMeter()
	for ctx := 0; ctx < 40; ctx++ {
		m.SetActivity(ctx, SpinMbar)
	}
	max := powerOver(k, m, 1_000_000)
	for ctx := 0; ctx < 40; ctx++ {
		m.SetVF(ctx, VFMin)
	}
	min := powerOver(k, m, 1_000_000)
	// Paper: spinning at VF-min consumes up to 1.7× less power. Compare
	// dynamic component above idle.
	ratio := (max.Total - 55.5) / (min.Total - 55.5)
	if ratio < 1.4 || ratio > 2.6 {
		t.Fatalf("VF-max/VF-min dynamic ratio %.2f, want ≈1.7-2", ratio)
	}
}

func TestHyperThreadVFSharing(t *testing.T) {
	_, m := newMeter()
	// Context 0 and its sibling share physical core 0.
	sib := topo.Xeon().NumCores() // first HT sibling of core 0
	m.SetVF(0, VFMin)
	if m.EffectiveSlowdown(0) != 1.0 {
		t.Fatal("one sibling at VF-min must not slow the core while the other is at VF-max")
	}
	m.SetVF(sib, VFMin)
	want := DefaultConfig().BaseFreqGHz / DefaultConfig().MinFreqGHz
	if math.Abs(m.EffectiveSlowdown(0)-want) > 1e-9 {
		t.Fatalf("slowdown %.2f, want %.2f once both siblings request VF-min", m.EffectiveSlowdown(0), want)
	}
}

func TestSecondHyperThreadCheaper(t *testing.T) {
	k, m := newMeter()
	m.SetActivity(0, Compute)
	one := powerOver(k, m, 1_000_000)
	sib := topo.Xeon().NumCores()
	m.SetActivity(sib, Compute)
	two := powerOver(k, m, 1_000_000)
	firstHT := one.Total - 55.5
	secondHT := two.Total - one.Total
	if secondHT >= firstHT/2 {
		t.Fatalf("second HT delta %.2f W vs first %.2f W: sibling should be much cheaper", secondHT, firstHT)
	}
}

func TestEnergyMonotonicProperty(t *testing.T) {
	f := func(steps []uint8) bool {
		k := sim.NewKernel(9)
		m := NewMeter(k, DefaultConfig(), topo.Xeon())
		prev := 0.0
		for _, s := range steps {
			ctx := int(s) % 40
			act := Activity(int(s) % int(numActivities))
			k.Schedule(100, func() { m.SetActivity(ctx, act) })
			k.Run(k.Now() + 100)
			e := m.Energy().Total()
			if e < prev-1e-12 {
				return false
			}
			prev = e
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestIdleDeepDrawsLessThanShallow(t *testing.T) {
	k, m := newMeter()
	for ctx := 0; ctx < 40; ctx++ {
		m.SetActivity(ctx, IdleShallow)
	}
	shallow := powerOver(k, m, 1_000_000)
	for ctx := 0; ctx < 40; ctx++ {
		m.SetActivity(ctx, IdleDeep)
	}
	deep := powerOver(k, m, 1_000_000)
	if deep.Total >= shallow.Total {
		t.Fatalf("deep idle %.1f W should undercut shallow %.1f W", deep.Total, shallow.Total)
	}
}

func TestActivityStrings(t *testing.T) {
	for a := Activity(0); a < numActivities; a++ {
		if a.String() == "" {
			t.Fatalf("activity %d has empty name", a)
		}
	}
	if Activity(99).String() != "Activity(99)" {
		t.Fatal("out-of-range activity name")
	}
	if !SpinLocal.IsSpin() || Compute.IsSpin() {
		t.Fatal("IsSpin misclassifies")
	}
	if !IdleDeep.IsIdle() || Mwait.IsIdle() {
		t.Fatal("IsIdle misclassifies")
	}
	if VFMin.String() == VFMax.String() {
		t.Fatal("VF strings collide")
	}
}

func TestBreakdownAndEnergyHelpers(t *testing.T) {
	e := Energy{Package: 10, Cores: 6, DRAM: 5}
	if e.Total() != 15 {
		t.Fatalf("Total = %f", e.Total())
	}
	d := e.Sub(Energy{Package: 4, Cores: 2, DRAM: 1})
	if d.Package != 6 || d.Cores != 4 || d.DRAM != 4 {
		t.Fatalf("Sub = %+v", d)
	}
	if (Energy{}).Power(0, 2.8) != (Breakdown{}) {
		t.Fatal("zero-duration power should be zero")
	}
	b := Energy{Package: 2.8, DRAM: 0}.Power(1_000_000_000, 2.8) // 2.8 J over 1/2.8 s
	if math.Abs(b.Package-7.84) > 0.01 {
		t.Fatalf("power conversion wrong: %+v", b)
	}
	if b.String() == "" {
		t.Fatal("empty breakdown string")
	}
}

// TestNewMeterRejectsInvalidTopology: the meter keeps one bit per core in
// a uint64, so NewMeter panics with Validate's error on any topology
// Validate refuses, as machine.New does, rather than silently losing the
// bits of cores past 64.
func TestNewMeterRejectsInvalidTopology(t *testing.T) {
	for _, bad := range []topo.Topology{
		{Sockets: 1, CoresPerSocket: 65, ThreadsPerCore: 1},
		{Sockets: 1, CoresPerSocket: 0, ThreadsPerCore: 2},
	} {
		func() {
			defer func() {
				err, _ := recover().(error)
				if err == nil || err.Error() != bad.Validate().Error() {
					t.Errorf("NewMeter(%+v) panicked with %v, want %v", bad, err, bad.Validate())
				}
			}()
			NewMeter(sim.NewKernel(1), DefaultConfig(), bad)
		}()
	}
}
