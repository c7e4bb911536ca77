package machine

import (
	"fmt"

	"lockin/internal/coherence"
	"lockin/internal/power"
	"lockin/internal/sim"
)

// handBack names a point where SpinAcquire leaves a step to its thread
// instead of running it as a kernel callback. Machine.handBacks counts
// each, so that tests can show every point is reached.
type handBack int

const (
	// handBackPolicy: the wait policy costs cycles to enter or leave
	// (see transitionFree), so the whole call runs on the thread.
	handBackPolicy handBack = iota
	// handBackArm: a peer waits for a context when an epoch would be
	// armed. That epoch needs a slice timer, so the thread spins it.
	handBackArm
	// handBackRun: an attempt's cost runs past the end of the slice while
	// a peer waits for a context, so the thread finishes the Run and is
	// preempted there.
	handBackRun

	numHandBacks
)

// Wake tokens of a thread parked in SpinAcquire: acqWon ends the call,
// and acqArm and acqRun hand it a step (see handBack).
const (
	acqWon = iota + 1
	acqArm
	acqRun
)

// acquireState is a thread's SpinAcquire state, shared by the callbacks
// that carry its retries. It is pooled inside the thread's spinState.
type acquireState struct {
	t  *Thread
	st *spinState

	line    *coherence.Line
	attempt func(uint64) (uint64, bool)
	pol     WaitPolicy

	// The attempt in flight: the word it read, its cost and the part of
	// the cost not run yet.
	old        uint64
	cost, left sim.Cycles
}

// isFree is SpinAcquire's spin predicate: the word reads 0.
func isFree(v uint64) bool { return v == 0 }

// SpinAcquire takes a spinlock whose word l is free at 0. It makes the
// atomic attempt on l, which won if the word was 0, and while attempts
// lose, it spins under pol until the word reads 0 and tries again. TAS
// and TTAS are this loop with their own attempt.
//
// After a lost attempt the thread stays parked. The end of each spin
// epoch, the next attempt and that attempt's cost run as kernel
// callbacks, and the thread resumes once, when an attempt wins, so a lost
// retry costs no coroutine switch. The simulation is the thread's own
// loop, event for event (DESIGN.md invariant 8): each step runs where the
// thread would have run it, with nothing in between. A step that only
// the thread can take goes back to it (see handBack).
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
		tok := a.spin()
		if tok == 0 {
			tok = t.Proc().Park()
		}
		var old uint64
		switch tok {
		case acqWon:
			return
		case acqArm:
			t.SpinUntil(l, isFree, pol)
			old, _ = t.RMW(l, attempt)
		case acqRun:
			t.Run(a.left)
			t.m.note(power.Compute, a.cost)
			old = a.old
		default:
			panic(fmt.Sprintf("machine: unexpected acquire wake token %d", tok))
		}
		if old == 0 {
			return
		}
	}
}

// spin follows a lost attempt. It arms an epoch whose end runs as a
// callback (fired) and returns 0: the thread stays parked. While a peer
// waits for a context it arms nothing and returns acqArm instead: that
// epoch needs a slice timer, so the thread spins it itself.
func (a *acquireState) spin() uint64 {
	if a.t.m.Sched.Oversubscribed() {
		a.t.m.handBacks[handBackArm]++
		return acqArm
	}
	a.st.fused = true
	a.st.arm(a.line, isFree, a.pol, 0)
	return 0
}

// fired ends a callback epoch once the watcher saw the word free. It
// settles the epoch as SpinUntil would and starts the next attempt.
func (a *acquireState) fired() {
	a.st.fused = false
	a.st.settle()
	a.old, _, a.cost = a.t.startRMW(a.line, a.attempt)
	a.left = a.cost
	a.run()
}

// run carries the attempt's cost forward as Thread.Run would, one Step at
// a time, with each chunk's wait a callback (ranCall) where Run sleeps.
func (a *acquireState) run() {
	t := a.t
	for a.left > 0 {
		chunk, wait, ok := t.Step(a.left)
		if !ok {
			t.m.handBacks[handBackRun]++
			t.Proc().Wake(acqRun)
			return
		}
		if wait > 0 {
			t.m.K.ScheduleCall(wait, ranCall, a, uint64(chunk), 0)
			return
		}
		// Sleep(0) returns at once.
		t.Ran(chunk)
		a.left -= chunk
	}
	a.done()
}

// ranCall ends the wait of one chunk of an attempt's cost.
func ranCall(obj any, chunk, _ uint64) {
	a := obj.(*acquireState)
	a.t.Ran(sim.Cycles(chunk))
	a.left -= sim.Cycles(chunk)
	a.run()
}

// done ends an attempt whose cost has run: a win wakes the thread, and a
// loss arms the next epoch.
func (a *acquireState) done() {
	t := a.t
	t.m.note(power.Compute, a.cost)
	if a.old == 0 {
		t.Proc().Wake(acqWon)
		return
	}
	if tok := a.spin(); tok != 0 {
		t.Proc().Wake(tok)
	}
}
