package machine

import (
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
