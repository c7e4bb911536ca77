package machine

import (
	"testing"

	"lockin/internal/coherence"
	"lockin/internal/sim"
)

// TestSpinAcquireRetrySteadyStateZeroAlloc: once warm, the spin call
// allocates nothing per step, on three inputs:
//   - a contended test-and-set herd, whose lost retries run as kernel
//     callbacks (epoch end, attempt, the attempt's cost in chunks, the
//     next epoch);
//   - the same herd oversubscribed at a 300-cycle slice, so its epochs
//     end by the slice timer and a Requeue, and its attempts, which cost
//     more than a slice, are requeued mid-cost;
//   - a budgeted SpinUntilLimit that gives up and backs off, as
//     MUTEXEE's spin phase does.
func TestSpinAcquireRetrySteadyStateZeroAlloc(t *testing.T) {
	inputs := []struct {
		name      string
		timeslice sim.Cycles // 0 = the default
		spawn     func(m *Machine, l *coherence.Line, herd *[]*Thread) *uint64
		check     func(t *testing.T, rmws, preemptions, done uint64)
	}{{
		name: "contended-herd",
		spawn: func(m *Machine, l *coherence.Line, herd *[]*Thread) *uint64 {
			return spawnTASHerd(m, l, 8, 1000, 100, 0, herd)
		},
		check: func(t *testing.T, rmws, _, acquired uint64) {
			if acquired == 0 || rmws <= 2*acquired {
				t.Errorf("%d atomics for %d acquisitions: want a contended herd with lost retries", rmws, acquired)
			}
		},
	}, {
		name:      "oversubscribed-short-slice",
		timeslice: 300,
		spawn: func(m *Machine, l *coherence.Line, herd *[]*Thread) *uint64 {
			return spawnTASHerd(m, l, 44, 1000, 100, 0, herd)
		},
		check: func(t *testing.T, _, preemptions, acquired uint64) {
			if acquired == 0 || preemptions == 0 {
				t.Errorf("%d acquisitions and %d preemptions: want an oversubscribed herd that makes progress", acquired, preemptions)
			}
		},
	}, {
		name: "budgeted-spin",
		spawn: func(m *Machine, l *coherence.Line, herd *[]*Thread) *uint64 {
			var gaveUp uint64
			for i := 0; i < 8; i++ {
				*herd = append(*herd, m.Spawn("budget", func(t *Thread) {
					for {
						for !t.CAS(l, 0, 1) {
							if _, ok := t.SpinUntilLimit(l, isFree, WaitMbar, 400); !ok {
								gaveUp++
								t.Compute(500)
							}
						}
						t.Compute(1000)
						t.Store(l, 0)
						t.Compute(100)
					}
				}))
			}
			return &gaveUp
		},
		check: func(t *testing.T, _, _, gaveUp uint64) {
			if gaveUp == 0 {
				t.Error("no spin gave up")
			}
		},
	}}
	for _, in := range inputs {
		t.Run(in.name, func(t *testing.T) {
			cfg := DefaultConfig(1)
			if in.timeslice != 0 {
				cfg.Sched.Timeslice = in.timeslice
			}
			m := New(cfg)
			var herd []*Thread
			done := in.spawn(m, m.NewLine("word"), &herd)
			preempted := func() uint64 {
				var n uint64
				for _, th := range herd {
					n += th.Preemptions
				}
				return n
			}
			until := sim.Cycles(0)
			step := func() {
				until += 20_000
				m.K.Run(until)
			}
			for i := 0; i < 64; i++ {
				step() // warm the event pool, the watcher lists and the pooled states
			}
			rmws, preemptions, before := m.Coh.Stats().RMWs, preempted(), *done
			if n := testing.AllocsPerRun(200, step); n != 0 {
				t.Errorf("allocates %.1f per 20K cycles, want 0", n)
			}
			in.check(t, m.Coh.Stats().RMWs-rmws, preempted()-preemptions, *done-before)
		})
	}
}
