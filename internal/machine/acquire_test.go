package machine

import (
	"testing"

	"lockin/internal/coherence"
	"lockin/internal/sim"
)

// swapOne is TAS's attempt, spelled out here because machine cannot
// import core: exchange 1 into the word.
func swapOne(uint64) (uint64, bool) { return 1, true }

// spawnTASHerd spawns n threads that take a test-and-set lock on l with
// SpinAcquire, as core.TAS does, hold it for cs cycles and work outside
// it for out cycles, until the clock passes until (0 = forever). It
// returns the count of acquisitions the threads make, and appends the
// threads to herd when herd is not nil.
func spawnTASHerd(m *Machine, l *coherence.Line, n int, cs, out, until sim.Cycles, herd *[]*Thread) *uint64 {
	var acquired uint64
	for i := 0; i < n; i++ {
		th := m.Spawn("tas", func(t *Thread) {
			for until == 0 || t.Proc().Now() < until {
				t.SpinAcquire(l, swapOne, WaitGlobal)
				acquired++
				t.Compute(cs)
				t.Store(l, 0)
				t.Compute(out)
			}
		})
		if herd != nil {
			*herd = append(*herd, th)
		}
	}
	return &acquired
}

// TestSpinAcquireHandsBackEveryStep reaches every point where
// SpinAcquire hands a step back to its thread. The herd is the
// spawn-mid-epoch/slice-300/TAS row of TestSpinAcquireMatchesReference
// (internal/core), which compares it bit for bit with the old thread
// loop: 40 TAS threads on a 300-cycle slice, joined every 25,013 cycles
// by a short-lived thread that oversubscribes the scheduler while they
// spin. So that comparison covers the arm and run hand-backs; the run
// hand-back is sched's Carry, counted per thread. The policy hand-back
// is the first branch of every TTAS row under mwait, mwait-user and
// DVFS there.
func TestSpinAcquireHandsBackEveryStep(t *testing.T) {
	cfg := DefaultConfig(7)
	cfg.Sched.Timeslice = 300
	m := New(cfg)
	var herd []*Thread
	spawnTASHerd(m, m.NewLine("tas"), 40, 800, 150, 300_000, &herd)
	for at := sim.Cycles(25_013); at < 300_000; at += 25_013 {
		m.K.Schedule(at, func() {
			m.Spawn("late", func(t *Thread) { t.Compute(600) })
		})
	}
	m.K.Drain()

	mw := NewDefault(1)
	l := mw.NewLine("ttas")
	mw.Spawn("mwait", func(t *Thread) { t.SpinAcquire(l, swapOne, WaitMwait) })
	mw.K.Drain()

	var run uint64
	for _, th := range herd {
		run += th.HandBacks
	}
	got := [...]uint64{mw.handBacks[handBackPolicy], m.handBacks[handBackArm], run}
	t.Logf("hand-backs (policy, arm, run): %v", got)
	for h, n := range got {
		if n == 0 {
			t.Errorf("hand-back %d never taken", h)
		}
	}
}
