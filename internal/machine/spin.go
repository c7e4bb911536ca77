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

// spinWake reasons delivered through Proc.Wake tokens.
const (
	wakePred  = 1
	wakeSlice = 2
	wakeLimit = 3
)

// spinState is a thread's pooled busy-wait epoch state: one coherence
// watcher, the wake bookkeeping and a stable Fire closure, reused across
// epochs so spinning allocates nothing in steady state. Deliveries that
// outlive their epoch are cut off by the watcher's registration
// generation (see coherence); within an epoch, settled arbitrates the
// race between the predicate wake and the slice/budget timer.
type spinState struct {
	t       *Thread
	line    *coherence.Line
	settled bool
	val     uint64
	w       coherence.Watcher

	// The epoch between arm and settle.
	act     power.Activity
	start   sim.Cycles
	pollers int // the line's pollers right after Watch
	timer   sim.Event

	// fused is set while the epoch belongs to a SpinAcquire whose
	// retries run as callbacks (acquire.go): its end runs acq.fired
	// instead of waking the thread. acq lives here so that a thread's
	// spin state is one allocation, made once.
	fused bool
	acq   acquireState
}

// spinEpoch returns the thread's reusable spin state, creating it (and
// its one Fire closure) on first use.
func (t *Thread) spinEpoch() *spinState {
	if t.spin == nil {
		st := &spinState{t: t}
		st.acq.t, st.acq.st = t, st
		st.w.Fire = func(v uint64) {
			if st.settled {
				return
			}
			st.settled = true
			st.val = v
			if st.fused {
				st.acq.fired()
				return
			}
			st.t.Proc().Wake(wakePred)
		}
		t.spin = st
	}
	return t.spin
}

// arm starts a busy-wait epoch on l: it charges the context at pol's
// activity, registers the watcher for pred, and arms a timer for the
// shorter of the slice expiry (when a peer waits for a context) and left
// cycles of spin budget (0 = no budget).
func (st *spinState) arm(l *coherence.Line, pred func(uint64) bool, pol WaitPolicy, left sim.Cycles) {
	t := st.t
	st.act = pol.Activity()
	t.SetActivity(st.act)
	st.line = l
	st.settled = false
	st.w.Ctx = t.Ctx()
	st.w.Kind = pol.watchKind()
	st.w.Pred = pred
	st.start = t.Proc().Now()
	// Arm the shorter of the slice-expiry and budget timers.
	reason := uint64(0)
	armed := sim.Cycles(0)
	if t.m.Sched.Oversubscribed() {
		armed = t.SliceLeft()
		reason = wakeSlice
	}
	if left > 0 && (armed == 0 || left < armed) {
		armed = left
		reason = wakeLimit
	}
	st.timer = sim.Event{}
	if armed > 0 {
		st.timer = t.m.K.ScheduleCall(armed, spinTimerCall, st, reason, 0)
	}
	l.Watch(&st.w)
	st.pollers = l.Pollers()
}

// settle ends the epoch that arm started: it charges the cycles spun to
// the thread's slice and to the CPI counters, cancels the timer, and
// returns those cycles.
func (st *spinState) settle() sim.Cycles {
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
	return waited
}

// spinTimerCall ends a spin epoch for a non-predicate reason (timeslice
// expiry or spin budget exhausted), carried in the reason argument.
func spinTimerCall(obj any, reason, _ uint64) {
	st := obj.(*spinState)
	if st.settled {
		return
	}
	st.settled = true
	st.line.Unwatch(&st.w)
	st.t.Proc().Wake(reason)
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
// implemented in user space.
//
// The exit cost is paid after the returned value is read, as a deferred
// call would, but explicitly: a proc that Drain releases unwinds through
// its deferred calls, and those must run no simulation code.
func (t *Thread) SpinUntilLimit(l *coherence.Line, pred func(uint64) bool, pol WaitPolicy, limit sim.Cycles) (uint64, bool) {
	spent := sim.Cycles(0)
	t.spinEnter(pol)
	st := t.spinEpoch()
	for {
		left := sim.Cycles(0)
		if limit > 0 {
			if spent >= limit {
				v := l.Val()
				t.spinExit(pol)
				return v, false
			}
			left = limit - spent
		}
		st.arm(l, pred, pol, left)
		got := t.Proc().Park()
		spent += st.settle()
		switch got {
		case wakePred:
			v := st.val
			t.spinExit(pol)
			return v, true
		case wakeLimit:
			v := l.Val()
			t.spinExit(pol)
			return v, false
		case wakeSlice:
			if t.m.Sched.Oversubscribed() {
				t.Preempt()
			}
			// Re-watch with a fresh slice.
		default:
			panic(fmt.Sprintf("machine: unexpected spin wake token %d", got))
		}
	}
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
	act := pol.Activity()
	t.spinEnter(pol)
	t.SetActivity(act)
	t.Run(d)
	t.m.note(act, d)
	t.spinExit(pol)
}

// transitionFree reports whether waiting under p costs nothing to enter
// or leave: spinEnter and spinExit skip these policies, and SpinAcquire
// runs only these as callbacks. A new policy stays off the list, and so
// runs on its thread, until it is known to cost nothing.
func (p WaitPolicy) transitionFree() bool {
	switch p {
	case WaitLocal, WaitPause, WaitMbar, WaitGlobal:
		return true
	}
	return false
}

// spinEnter pays the cost of entering pol's waiting state: arming the
// monitor, or switching the context to VF-min.
func (t *Thread) spinEnter(pol WaitPolicy) {
	if pol.transitionFree() {
		return
	}
	if pol == WaitMwait {
		// Arm the monitor through the kernel device.
		t.Compute(t.m.cfg.MwaitEnter)
	}
	if pol == WaitMwaitUser {
		t.Compute(mwaitUserEnter)
	}
	if pol == WaitDVFS {
		t.Compute(t.m.cfg.DVFSSwitch)
		t.SetVF(power.VFMin)
	}
}

// spinExit pays the cost of leaving pol's waiting state, undoing
// spinEnter.
func (t *Thread) spinExit(pol WaitPolicy) {
	if pol.transitionFree() {
		return
	}
	if pol == WaitDVFS {
		t.SetVF(power.VFMax)
		t.Compute(t.m.cfg.DVFSSwitch)
	}
	if pol == WaitMwait {
		// Exit latency out of the optimized state.
		t.Compute(t.m.cfg.MwaitWake)
	}
	if pol == WaitMwaitUser {
		t.Compute(mwaitUserWake)
	}
}
