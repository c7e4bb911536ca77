package machine

import (
	"lockin/internal/coherence"
	"lockin/internal/power"
	"lockin/internal/sim"
)

// handBack names a point where SpinAcquire leaves a step to its thread
// instead of running it as a kernel callback. Machine.handBacks counts
// each, so that tests can show every point is reached. The third point,
// an attempt's cost that runs past the end of the slice while a peer
// waits for a context, is sched's: Carry hands the rest of the cost to
// the thread and counts it in Thread.HandBacks.
type handBack int

const (
	// handBackPolicy: the wait policy costs cycles to enter or leave
	// (see transitionFree), so the whole call runs on the thread.
	handBackPolicy handBack = iota
	// handBackArm: a peer waits for a context when an epoch would be
	// armed. That epoch needs a slice timer, so the thread spins it.
	handBackArm

	numHandBacks
)

// Values a thread parked in SpinAcquire resumes with: acqWon ends the
// call, and acqArm hands it an epoch (see handBack).
const (
	acqWon = iota + 1
	acqArm
)

// acquireState is a thread's SpinAcquire state, shared by the callbacks
// that carry its retries. It is pooled inside the thread's spinState.
type acquireState struct {
	t  *Thread
	st *spinState

	line    *coherence.Line
	attempt func(uint64) (uint64, bool)
	pol     WaitPolicy

	// The attempt in flight: the word it read and its cost.
	old  uint64
	cost sim.Cycles
}

// isFree is SpinAcquire's spin predicate: the word reads 0.
func isFree(v uint64) bool { return v == 0 }

// SpinAcquire takes a spinlock whose word l is free at 0. It makes the
// atomic attempt on l, which won if the word was 0, and while attempts
// lose, it spins under pol until the word reads 0 and tries again. TAS
// and TTAS are this loop with their own attempt.
//
// After a lost attempt the thread stays parked in a sched call. The end
// of each spin epoch, the next attempt and that attempt's cost (through
// sched.Thread.Carry) run as kernel callbacks, and the thread resumes
// once, when an attempt wins, so a lost retry costs no coroutine switch.
// The simulation is the thread's own loop, event for event (DESIGN.md
// invariant 8): each step runs where the thread would have run it, with
// nothing in between. A step that only the thread can take goes back to
// it (see handBack).
//
// attempt is kept between the callbacks, so it should capture nothing,
// or each retry allocates.
func (t *Thread) SpinAcquire(l *coherence.Line, attempt func(uint64) (uint64, bool), pol WaitPolicy) {
	if !pol.transitionFree() {
		t.m.handBacks[handBackPolicy]++
		for {
			if old, _ := t.RMW(l, attempt); old == 0 {
				return
			}
			t.SpinUntil(l, isFree, pol)
		}
	}
	if old, _ := t.RMW(l, attempt); old == 0 {
		return
	}
	a := &t.spinEpoch().acq
	a.line, a.attempt, a.pol = l, attempt, pol
	for {
		a.spin()
		if t.Await() == acqWon {
			return
		}
		t.SpinUntil(l, isFree, pol)
		if old, _ := t.RMW(l, attempt); old == 0 {
			return
		}
	}
}

// spin follows a lost attempt. It arms an epoch whose end runs as a
// callback (fired), and the thread stays parked. While a peer waits for
// a context it arms nothing and returns acqArm to the thread instead:
// that epoch needs a slice timer, so the thread spins it itself.
func (a *acquireState) spin() {
	if a.t.m.Sched.Oversubscribed() {
		a.t.m.handBacks[handBackArm]++
		a.t.Return(acqArm)
		return
	}
	a.st.fused = true
	a.st.arm(a.line, isFree, a.pol, 0)
}

// fired ends a callback epoch once the watcher saw the word free. It
// settles the epoch as SpinUntil would, starts the next attempt and
// carries its cost as RMW would run it.
func (a *acquireState) fired() {
	a.st.fused = false
	a.st.settle()
	a.old, _, a.cost = a.t.startRMW(a.line, a.attempt)
	a.t.Carry(a.cost, a)
}

// Next ends an attempt whose cost has run: a win ends the call, and a
// loss arms the next epoch.
func (a *acquireState) Next() {
	t := a.t
	t.m.note(power.Compute, a.cost)
	if a.old == 0 {
		t.Return(acqWon)
		return
	}
	a.spin()
}
