package power

import (
	"testing"

	"lockin/internal/sim"
	"lockin/internal/topo"
)

// TestMeterSteadyStateZeroAlloc: every transition goes through the meter,
// so a context switch (VF + activity), the time step after it and the
// readings allocate nothing.
func TestMeterSteadyStateZeroAlloc(t *testing.T) {
	k := sim.NewKernel(1)
	m := NewMeter(k, DefaultConfig(), topo.Xeon())
	ctx := 0
	step := func() {
		ctx = (ctx + 7) % 40
		if m.Activity(ctx) == Compute {
			m.SetVF(ctx, VFMin)
			m.SetActivity(ctx, SpinMbar)
		} else {
			m.SetVF(ctx, VFMax)
			m.SetActivity(ctx, Compute)
		}
		k.Run(k.Now() + 100)
		_ = m.Energy()
		_ = m.InstantPower()
		_ = m.EffectiveSlowdown(ctx)
	}
	for i := 0; i < 64; i++ {
		step()
	}
	if n := testing.AllocsPerRun(200, step); n != 0 {
		t.Errorf("meter transition allocates %.1f per op, want 0", n)
	}
}
