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

// TestMeterReplayZeroAlloc: transitions that fill batches, hand them to
// the helper and wait for it when maxQueued are queued allocate nothing
// either. Replayed batches are spare for the next fill, and the helper
// starts with a go statement of a func value bound in NewMeter, which
// reuses the goroutine of an exited helper (a go statement of a method
// call would allocate its closure). The count is over 64 batches, not
// per batch, so a start that allocated could not round down to 0.
func TestMeterReplayZeroAlloc(t *testing.T) {
	k := sim.NewKernel(1)
	m := NewMeter(k, DefaultConfig(), topo.Xeon())
	ctx := 0
	fill := func() {
		for i := 0; i < batchLen; i++ {
			ctx = (ctx + 7) % 40
			if m.Activity(ctx) == Compute {
				m.SetActivity(ctx, SpinMbar)
			} else {
				m.SetActivity(ctx, Compute)
			}
			k.Run(k.Now() + 10)
		}
	}
	for i := 0; i < 2*maxQueued; i++ {
		fill() // warm: every batch the meter will pool
	}
	if n := testing.AllocsPerRun(1, func() {
		for i := 0; i < 64; i++ {
			fill()
		}
	}); n != 0 {
		t.Errorf("64 batches of transitions allocate %.0f times, want 0", n)
	}
	_ = m.Energy()
}
