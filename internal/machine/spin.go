package machine

import (
	"fmt"

	"lockin/internal/coherence"
	"lockin/internal/power"
	"lockin/internal/sim"
)

// WaitPolicy selects how a thread busy-waits on a cache line. Policies
// correspond to the techniques evaluated in §4 of the paper.
type WaitPolicy int

const (
	// WaitLocal is a plain load spin loop (no pausing, CPI ≈0.33).
	WaitLocal WaitPolicy = iota
	// WaitPause paces the loop with the x86 pause instruction. It
	// *increases* power on Ivy Bridge (paper Figure 4).
	WaitPause
	// WaitMbar paces the loop with a memory barrier — the paper's
	// recommended technique, cheaper than both pause and plain spinning.
	WaitMbar
	// WaitGlobal polls with atomic operations (test-and-set style).
	WaitGlobal
	// WaitMwait blocks the hardware context via monitor/mwait (through
	// the paper's virtual-device workaround, costing kernel crossings).
	WaitMwait
	// WaitDVFS spins with mbar at the minimum voltage-frequency point,
	// paying a VF switch on each side of the wait.
	WaitDVFS
	// WaitMwaitUser is the §8 future-hardware variant of WaitMwait:
	// user-level monitor/mwait (as on SPARC M7), with no kernel crossing
	// and a fast exit.
	WaitMwaitUser
)

func (p WaitPolicy) String() string {
	switch p {
	case WaitLocal:
		return "local"
	case WaitPause:
		return "local-pause"
	case WaitMbar:
		return "local-mbar"
	case WaitGlobal:
		return "global"
	case WaitMwait:
		return "monitor-mwait"
	case WaitDVFS:
		return "dvfs"
	case WaitMwaitUser:
		return "mwait-user"
	}
	return fmt.Sprintf("WaitPolicy(%d)", int(p))
}

// Activity maps the policy to its power class.
func (p WaitPolicy) Activity() power.Activity {
	switch p {
	case WaitLocal:
		return power.SpinLocal
	case WaitPause:
		return power.SpinPause
	case WaitMbar:
		return power.SpinMbar
	case WaitGlobal:
		return power.SpinGlobal
	case WaitMwait, WaitMwaitUser:
		return power.Mwait
	case WaitDVFS:
		return power.SpinMbar
	}
	return power.SpinLocal
}

func (p WaitPolicy) watchKind() coherence.WatchKind {
	if p == WaitGlobal {
		return coherence.WatchGlobal
	}
	return coherence.WatchLocal
}

// User-level monitor/mwait costs (§8: a SPARC M7-style implementation
// with no kernel crossing and a fast exit).
const (
	mwaitUserEnter = sim.Cycles(20)
	mwaitUserWake  = sim.Cycles(150)
)

// spinArgs is what a spin call waits for: a predicate on a line, or
// (pred nil) dur cycles, under a policy, with a spin budget (limit, 0 =
// none) and SpinAcquire's attempt after each wait (nil: none).
type spinArgs struct {
	line    *coherence.Line
	pred    func(uint64) bool
	dur     sim.Cycles
	pol     WaitPolicy
	limit   sim.Cycles
	attempt func(uint64) (uint64, bool)
}

// spinStep names the step of a spin call that follows the cost it
// carries, or the dispatch that ends its preemption.
type spinStep int

const (
	afterEnter   spinStep = iota // the enter cost: begin
	afterSpin                    // SpinFor's cycles: leave
	afterRequeue                 // a slice-timer preemption: wait again
	afterExit                    // the exit cost: end
	afterAttempt                 // an attempt: return if it won, else enter
)

// spinState is a thread's one busy-wait call (a sched.Call), pooled and
// reused for every call, so spinning allocates nothing in steady state.
// SpinUntilLimit, SpinUntil, SpinFor and SpinAcquire start it and Await
// it. While the thread stays parked, each of its steps runs as a kernel
// callback where the thread's own loop ran it (DESIGN.md invariant 8;
// reference_test.go keeps that loop): the policy's enter cost, each
// epoch, each slice-timer preemption (Requeue), the spin budget, the
// exit cost, and SpinAcquire's attempt after each wait.
//
// An epoch is one watcher registration: the context is charged at the
// policy's activity until the watcher fires or the timer ends it.
// Deliveries that outlive their epoch are cut off by the watcher's
// registration generation (see coherence); within an epoch, settled
// arbitrates the race between the watcher and the timer.
type spinState struct {
	t *Thread
	w coherence.Watcher
	spinArgs

	// The call: the cycles spun so far, the step that follows the cost
	// in flight and that cost, and the result: the value observed (after
	// an attempt, the word it read) and whether pred held.
	spent sim.Cycles
	next  spinStep
	cost  sim.Cycles
	val   uint64
	ok    bool

	// The epoch between arm and settle; sliceTimer tells whether its
	// timer is the slice expiry or the spin budget.
	settled    bool
	act        power.Activity
	start      sim.Cycles
	pollers    int // the line's pollers right after Watch
	timer      sim.Event
	sliceTimer bool
}

// spinCall runs a spin call on the thread's pooled state, creating it
// (and its one Fire closure) on first use, and returns the state once
// the call returns.
func (t *Thread) spinCall(a spinArgs) *spinState {
	st := t.spin
	if st == nil {
		st = &spinState{t: t}
		st.w.Fire = st.fired
		t.spin = st
	}
	st.spinArgs, st.spent = a, 0
	st.enter()
	t.Await()
	return st
}

// transition returns what entering and leaving pol's waiting state
// costs: arming the monitor (through the kernel device for WaitMwait)
// and its exit latency, or a VF switch each way for WaitDVFS.
func (m *Machine) transition(pol WaitPolicy) (enter, exit sim.Cycles) {
	switch pol {
	case WaitMwait:
		return m.cfg.MwaitEnter, m.cfg.MwaitWake
	case WaitMwaitUser:
		return mwaitUserEnter, mwaitUserWake
	case WaitDVFS:
		return m.cfg.DVFSSwitch, m.cfg.DVFSSwitch
	}
	return 0, 0
}

// enter pays the cost of entering the policy's waiting state, as
// Thread.Compute would, then begins the wait.
func (st *spinState) enter() {
	if c, _ := st.t.m.transition(st.pol); c > 0 {
		st.compute(c, afterEnter)
		return
	}
	st.begin()
}

// begin follows the enter cost: a DVFS context moves to VF-min, and the
// wait starts.
func (st *spinState) begin() {
	if st.pol == WaitDVFS {
		st.t.SetVF(power.VFMin)
	}
	st.wait()
}

// leave pays the cost of leaving the policy's waiting state, as
// Thread.Compute would, after a DVFS context moves back to VF-max, then
// ends the wait.
func (st *spinState) leave() {
	if st.pol == WaitDVFS {
		st.t.SetVF(power.VFMax)
	}
	if _, c := st.t.m.transition(st.pol); c > 0 {
		st.compute(c, afterExit)
		return
	}
	st.end()
}

// end follows the exit cost: the call returns, or SpinAcquire makes its
// attempt as RMW runs it.
func (st *spinState) end() {
	if st.attempt == nil {
		st.t.Return(0)
		return
	}
	var cost sim.Cycles
	st.val, _, cost = st.t.startRMW(st.line, st.attempt)
	st.carry(cost, afterAttempt)
}

// compute carries c cycles of Compute and continues at then; Next notes
// them.
func (st *spinState) compute(c sim.Cycles, then spinStep) {
	st.t.SetActivity(power.Compute)
	st.carry(c, then)
}

func (st *spinState) carry(c sim.Cycles, then spinStep) {
	st.cost, st.next = c, then
	st.t.Carry(c, st)
}

// wait spins: SpinFor's cycles, or an epoch with what is left of the
// budget. A spent budget reads the line and leaves.
func (st *spinState) wait() {
	if st.pred == nil {
		st.act = st.pol.Activity()
		st.t.SetActivity(st.act)
		st.carry(st.dur, afterSpin)
		return
	}
	left := sim.Cycles(0)
	if st.limit > 0 {
		if st.spent >= st.limit {
			st.val, st.ok = st.line.Val(), false
			st.leave()
			return
		}
		left = st.limit - st.spent
	}
	st.arm(left)
}

// Next runs the step that follows the cost the call carried, or the
// dispatch after a slice-timer Requeue.
func (st *spinState) Next() {
	t := st.t
	switch st.next {
	case afterEnter:
		t.m.note(power.Compute, st.cost)
		st.begin()
	case afterSpin:
		t.m.note(st.act, st.cost)
		st.leave()
	case afterRequeue:
		st.wait()
	case afterExit:
		t.m.note(power.Compute, st.cost)
		st.end()
	case afterAttempt:
		t.m.note(power.Compute, st.cost)
		if st.val == 0 {
			t.Return(0)
			return
		}
		st.enter()
	}
}

// arm starts a busy-wait epoch: it charges the context at the policy's
// activity, registers the watcher for pred, and arms a timer for the
// shorter of the slice expiry (when a peer waits for a context) and left
// cycles of spin budget (0 = no budget).
func (st *spinState) arm(left sim.Cycles) {
	t := st.t
	st.act = st.pol.Activity()
	t.SetActivity(st.act)
	st.settled = false
	st.w.Ctx = t.Ctx()
	st.w.Kind = st.pol.watchKind()
	st.w.Pred = st.pred
	st.start = t.Proc().Now()
	// Arm the shorter of the slice-expiry and budget timers.
	armed := sim.Cycles(0)
	st.sliceTimer = false
	if t.m.Sched.Oversubscribed() {
		armed = t.SliceLeft()
		st.sliceTimer = true
	}
	if left > 0 && (armed == 0 || left < armed) {
		armed = left
		st.sliceTimer = false
	}
	st.timer = sim.Event{}
	if armed > 0 {
		st.timer = t.m.K.ScheduleCall(armed, spinTimerCall, st, 0, 0)
	}
	st.line.Watch(&st.w)
	st.pollers = st.line.Pollers()
}

// settle ends the epoch that arm started: it charges the cycles spun to
// the thread's slice, to the CPI counters and to the spin budget, and
// cancels the timer.
func (st *spinState) settle() {
	t := st.t
	waited := t.Proc().Now() - st.start
	t.ChargeSlice(waited)
	// The poller population varies over the epoch; its peak (seen at
	// registration or at wake) prices the contention for CPI.
	peak := st.pollers
	if p := st.line.Pollers() + 1; p > peak {
		peak = p
	}
	t.m.noteSpin(st.act, waited, peak)
	t.m.K.Cancel(st.timer)
	st.spent += waited
}

// fired is the watcher's Fire: the predicate held, so the epoch ends
// and the call leaves with the value seen.
func (st *spinState) fired(v uint64) {
	if st.settled {
		return
	}
	st.settled = true
	st.settle()
	st.val, st.ok = v, true
	st.leave()
}

// spinTimerCall ends an epoch at its timer. At the slice expiry the
// thread is preempted if a peer still waits, and spins again once
// dispatched; at the end of the budget (spent then reaches limit) wait
// leaves.
func spinTimerCall(obj any, _, _ uint64) {
	st := obj.(*spinState)
	if st.settled {
		return
	}
	st.settled = true
	st.line.Unwatch(&st.w)
	st.settle()
	if st.sliceTimer && st.t.m.Sched.Oversubscribed() {
		st.next = afterRequeue
		st.t.Requeue(st)
		return
	}
	st.wait()
}

// SpinUntil busy-waits on l until pred holds, using the given policy.
// It returns the observed value. The wait is preemptible: under
// oversubscription the spinner burns its timeslice and round-trips
// through the run queue, which is exactly how spinlocks melt down when
// threads outnumber contexts.
func (t *Thread) SpinUntil(l *coherence.Line, pred func(uint64) bool, pol WaitPolicy) uint64 {
	v, _ := t.SpinUntilLimit(l, pred, pol, 0)
	return v
}

// SpinUntilLimit is SpinUntil with a budget: it gives up once the thread
// has spent limit cycles spinning (0 = unlimited) and reports whether the
// predicate was observed. Preemptions pause the budget clock: limit is
// CPU time spent spinning, matching how spin-then-sleep thresholds are
// implemented in user space. The exit cost is paid after the returned
// value is read.
func (t *Thread) SpinUntilLimit(l *coherence.Line, pred func(uint64) bool, pol WaitPolicy, limit sim.Cycles) (uint64, bool) {
	st := t.spinCall(spinArgs{line: l, pred: pred, pol: pol, limit: limit})
	return st.val, st.ok
}

// noteSpin records wait cycles for CPI reporting, refining global-spin
// CPI by the observed poller population.
func (m *Machine) noteSpin(a power.Activity, cycles sim.Cycles, pollers int) {
	if a != power.SpinGlobal {
		pollers = 0
	}
	cpi := activityCPI(a, pollers)
	m.instr.cycles[a] += float64(cycles)
	m.instr.instrs[a] += float64(cycles) / cpi
}

// SpinFor busy-waits unconditionally for d cycles under the given policy
// (used by pure waiting-cost experiments where nothing ever changes).
func (t *Thread) SpinFor(d sim.Cycles, pol WaitPolicy) {
	if d == 0 {
		return
	}
	t.spinCall(spinArgs{dur: d, pol: pol})
}
