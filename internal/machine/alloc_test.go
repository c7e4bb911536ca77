package machine

import (
	"testing"

	"lockin/internal/sim"
)

// TestSpinAcquireRetrySteadyStateZeroAlloc: once warm, a contended
// test-and-set herd whose lost retries run as kernel callbacks (epoch
// end, attempt, the attempt's cost in chunks, the next epoch) allocates
// nothing per retry.
func TestSpinAcquireRetrySteadyStateZeroAlloc(t *testing.T) {
	m := NewDefault(1)
	l := m.NewLine("tas")
	acquired := spawnTASHerd(m, l, 8, 1000, 100, 0, nil)
	until := sim.Cycles(0)
	step := func() {
		until += 20_000
		m.K.Run(until)
	}
	for i := 0; i < 64; i++ {
		step() // warm the event pool, the watcher lists and the pooled states
	}
	rmws, got := m.Coh.Stats().RMWs, *acquired
	if n := testing.AllocsPerRun(200, step); n != 0 {
		t.Errorf("contended SpinAcquire allocates %.1f per 20K cycles, want 0", n)
	}
	rmws, got = m.Coh.Stats().RMWs-rmws, *acquired-got
	if got == 0 || rmws <= 2*got {
		t.Errorf("%d atomics for %d acquisitions: want a contended herd with lost retries", rmws, got)
	}
}
