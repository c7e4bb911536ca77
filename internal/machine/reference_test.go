package machine

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"lockin/internal/coherence"
	"lockin/internal/power"
	"lockin/internal/sim"
)

// The thread loop below is SpinUntilLimit, SpinFor and SpinAcquire as
// they were before every busy-wait ran as one spin call: the thread
// parks for each epoch and is woken with a token by the watcher or the
// timer, pays the policy's enter and exit costs with Compute, preempts
// itself with Preempt, and makes each retry's attempt with RMW. It is
// kept verbatim (with a ref prefix) as the reference the spin call must
// match.

// spinWake reasons delivered through Proc.Wake tokens.
const (
	wakePred  = 1
	wakeSlice = 2
	wakeLimit = 3
)

// refSpinState is a thread's pooled busy-wait epoch state: one coherence
// watcher, the wake bookkeeping and a stable Fire closure, reused across
// epochs so spinning allocates nothing in steady state. Deliveries that
// outlive their epoch are cut off by the watcher's registration
// generation (see coherence); within an epoch, settled arbitrates the
// race between the predicate wake and the slice/budget timer.
type refSpinState struct {
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
}

// refLoop is the reference implementation. It keeps each thread's spin
// state, which the thread used to keep itself.
type refLoop struct {
	spin map[*Thread]*refSpinState

	// inAttempt counts the preemptions taken inside a retry's attempt,
	// the RMW after a spin.
	inAttempt uint64
}

// spinEpoch returns the thread's reusable spin state, creating it (and
// its one Fire closure) on first use.
func (r *refLoop) spinEpoch(t *Thread) *refSpinState {
	if r.spin[t] == nil {
		st := &refSpinState{t: t}
		st.w.Fire = func(v uint64) {
			if st.settled {
				return
			}
			st.settled = true
			st.val = v
			st.t.Proc().Wake(wakePred)
		}
		r.spin[t] = st
	}
	return r.spin[t]
}

// arm starts a busy-wait epoch on l: it charges the context at pol's
// activity, registers the watcher for pred, and arms a timer for the
// shorter of the slice expiry (when a peer waits for a context) and left
// cycles of spin budget (0 = no budget).
func (st *refSpinState) arm(l *coherence.Line, pred func(uint64) bool, pol WaitPolicy, left sim.Cycles) {
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
		st.timer = t.m.K.ScheduleCall(armed, refSpinTimerCall, st, reason, 0)
	}
	l.Watch(&st.w)
	st.pollers = l.Pollers()
}

// settle ends the epoch that arm started: it charges the cycles spun to
// the thread's slice and to the CPI counters, cancels the timer, and
// returns those cycles.
func (st *refSpinState) settle() sim.Cycles {
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

// refSpinTimerCall ends a spin epoch for a non-predicate reason
// (timeslice expiry or spin budget exhausted), carried in the reason
// argument.
func refSpinTimerCall(obj any, reason, _ uint64) {
	st := obj.(*refSpinState)
	if st.settled {
		return
	}
	st.settled = true
	st.line.Unwatch(&st.w)
	st.t.Proc().Wake(reason)
}

// spinUntil busy-waits on l until pred holds, using the given policy.
func (r *refLoop) spinUntil(t *Thread, l *coherence.Line, pred func(uint64) bool, pol WaitPolicy) uint64 {
	v, _ := r.spinUntilLimit(t, l, pred, pol, 0)
	return v
}

// spinUntilLimit is spinUntil with a budget: it gives up once the
// thread has spent limit cycles spinning (0 = unlimited) and reports
// whether the predicate was observed.
func (r *refLoop) spinUntilLimit(t *Thread, l *coherence.Line, pred func(uint64) bool, pol WaitPolicy, limit sim.Cycles) (uint64, bool) {
	spent := sim.Cycles(0)
	refSpinEnter(t, pol)
	st := r.spinEpoch(t)
	for {
		left := sim.Cycles(0)
		if limit > 0 {
			if spent >= limit {
				v := l.Val()
				refSpinExit(t, pol)
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
			refSpinExit(t, pol)
			return v, true
		case wakeLimit:
			v := l.Val()
			refSpinExit(t, pol)
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

// spinFor busy-waits unconditionally for d cycles under the given
// policy.
func (r *refLoop) spinFor(t *Thread, d sim.Cycles, pol WaitPolicy) {
	if d == 0 {
		return
	}
	act := pol.Activity()
	refSpinEnter(t, pol)
	t.SetActivity(act)
	t.Run(d)
	t.m.note(act, d)
	refSpinExit(t, pol)
}

// acquire is TAS's and TTAS's loop before SpinAcquire: an attempt, and
// after each lost one a spin until the word reads 0.
func (r *refLoop) acquire(t *Thread, l *coherence.Line, attempt func(uint64) (uint64, bool), pol WaitPolicy) {
	for retry := false; ; retry = true {
		before := t.Preemptions
		old, _ := t.RMW(l, attempt)
		if retry {
			r.inAttempt += t.Preemptions - before
		}
		if old == 0 {
			return
		}
		r.spinUntil(t, l, isFree, pol)
	}
}

// refTransitionFree reports whether waiting under p costs nothing to
// enter or leave.
func refTransitionFree(p WaitPolicy) bool {
	switch p {
	case WaitLocal, WaitPause, WaitMbar, WaitGlobal:
		return true
	}
	return false
}

// refSpinEnter pays the cost of entering pol's waiting state: arming the
// monitor, or switching the context to VF-min.
func refSpinEnter(t *Thread, pol WaitPolicy) {
	if refTransitionFree(pol) {
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

// refSpinExit pays the cost of leaving pol's waiting state, undoing
// refSpinEnter.
func refSpinExit(t *Thread, pol WaitPolicy) {
	if refTransitionFree(pol) {
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

// spinOps is one implementation of the busy-wait operations.
type spinOps struct {
	acquire func(t *Thread, l *coherence.Line, attempt func(uint64) (uint64, bool), pol WaitPolicy)
	until   func(t *Thread, l *coherence.Line, pred func(uint64) bool, pol WaitPolicy, limit sim.Cycles) (uint64, bool)
	spinFor func(t *Thread, d sim.Cycles, pol WaitPolicy)
}

// callOps are the spin call's operations. sliceInSpin counts the
// preemptions taken inside SpinUntilLimit calls under a policy with no
// enter or exit cost: such a call carries no cost, so each one is a
// Requeue by the epoch's slice timer.
func callOps(sliceInSpin *uint64) spinOps {
	return spinOps{
		acquire: (*Thread).SpinAcquire,
		until: func(t *Thread, l *coherence.Line, pred func(uint64) bool, pol WaitPolicy, limit sim.Cycles) (uint64, bool) {
			before := t.Preemptions
			v, ok := t.SpinUntilLimit(l, pred, pol, limit)
			if enter, exit := t.m.transition(pol); enter == 0 && exit == 0 {
				*sliceInSpin += t.Preemptions - before
			}
			return v, ok
		},
		spinFor: (*Thread).SpinFor,
	}
}

// ops are the reference's operations.
func (r *refLoop) ops() spinOps {
	return spinOps{acquire: r.acquire, until: r.spinUntilLimit, spinFor: r.spinFor}
}

// Costs of the protocols' steps, in cycles.
const (
	refCS      = 800  // inside the lock
	refOut     = 150  // between acquisitions
	refBudget  = 3000 // the budgeted spin's limit
	refSpinDur = 1500 // SpinFor's wait
)

// casOne is TTAS's attempt, a compare-and-swap of 0 for 1.
func casOne(v uint64) (uint64, bool) { return 1, v == 0 }

// refProtocol is one protocol of the reference table: body runs one
// round on a thread, on the shared line l.
type refProtocol struct {
	name string
	body func(ops spinOps, t *Thread, l *coherence.Line)
}

// refProtocols returns every protocol of the table: TAS, and TTAS, a
// ticket lock, a budgeted spin that gives up and SpinFor under every
// wait policy.
func refProtocols() []refProtocol {
	ps := []refProtocol{{"TAS", func(ops spinOps, t *Thread, l *coherence.Line) {
		ops.acquire(t, l, swapOne, WaitGlobal)
		t.Compute(refCS)
		t.Store(l, 0)
		t.Compute(refOut)
	}}}
	for _, pol := range []WaitPolicy{WaitLocal, WaitPause, WaitMbar, WaitGlobal, WaitMwait, WaitDVFS, WaitMwaitUser} {
		ps = append(ps, refProtocol{"TTAS-" + pol.String(), func(ops spinOps, t *Thread, l *coherence.Line) {
			ops.acquire(t, l, casOne, pol)
			t.Compute(refCS)
			t.Store(l, 0)
			t.Compute(refOut)
		}}, refProtocol{"ticket-" + pol.String(), func(ops spinOps, t *Thread, l *coherence.Line) {
			// FIFO handover: the high half draws tickets, the low half
			// serves them, as core.Ticket.
			old := t.FetchAdd(l, 1<<32)
			if my := old >> 32; old&0xffffffff != my {
				ops.until(t, l, func(v uint64) bool { return v&0xffffffff == my }, pol, 0)
			}
			t.Compute(refCS)
			t.FetchAdd(l, 1)
			t.Compute(refOut)
		}}, refProtocol{"budget-" + pol.String(), func(ops spinOps, t *Thread, l *coherence.Line) {
			// A spin that gives up after refBudget cycles and backs off
			// before it tries again, as MUTEXEE's spin phase does.
			for !t.CAS(l, 0, 1) {
				if _, ok := ops.until(t, l, isFree, pol, refBudget); !ok {
					t.Compute(refCS)
				}
			}
			t.Compute(refCS)
			t.Store(l, 0)
			t.Compute(refOut)
		}}, refProtocol{"spinfor-" + pol.String(), func(ops spinOps, t *Thread, l *coherence.Line) {
			ops.spinFor(t, refSpinDur, pol)
			t.FetchAdd(l, 1)
			t.Compute(refOut)
		}})
	}
	return ps
}

// refThreadStats is what the scheduler counts per thread.
type refThreadStats struct {
	Preemptions, Dispatches uint64
	RunCycles               sim.Cycles
}

// refRunStats is everything a run is compared on. Floating-point
// readings are kept as their bits.
type refRunStats struct {
	Rounds    uint64
	End       sim.Cycles
	Energy    [3]uint64 // Package, Cores, DRAM
	CPI       []uint64  // per activity, and with Compute
	Coherence coherence.Stats
	Threads   []refThreadStats
	Recycles  uint64 // change in sim.GlobalStats().EventRecycles
	NextDraw  int64  // the kernel RNG's next draw after Drain
}

// runReference runs n threads of p through ops on cfg's machine until the
// clock passes until, then drains. Every period cycles (0 = never) it
// spawns a thread that computes for a while and exits, so the scheduler
// becomes oversubscribed in the middle of the others' spins and
// attempts.
func runReference(cfg Config, p refProtocol, ops spinOps, n int, period, until sim.Cycles) refRunStats {
	recycles := sim.GlobalStats().EventRecycles
	m := New(cfg)
	l := m.NewLine("word")
	var s refRunStats
	var threads []*Thread
	for i := 0; i < n; i++ {
		threads = append(threads, m.Spawn("worker", func(t *Thread) {
			for t.Proc().Now() < until {
				p.body(ops, t, l)
				s.Rounds++
			}
		}))
	}
	for at := period; period > 0 && at < until; at += period {
		m.K.Schedule(at, func() {
			threads = append(threads, m.Spawn("late", func(t *Thread) { t.Compute(600) }))
		})
	}
	s.End = m.K.Drain()
	e := m.Meter.Energy()
	s.Energy = [3]uint64{math.Float64bits(e.Package), math.Float64bits(e.Cores), math.Float64bits(e.DRAM)}
	// Each activity alone, then with Compute: a ratio of sums hides a
	// cycle count its instruction count scales with, so the pairs also
	// pin how many cycles each activity recorded.
	for a := power.Activity(0); a <= power.Mwait; a++ {
		s.CPI = append(s.CPI, math.Float64bits(m.CPI(a)), math.Float64bits(m.CPI(power.Compute, a)))
	}
	s.Coherence = m.Coh.Stats()
	for _, th := range threads {
		s.Threads = append(s.Threads, refThreadStats{th.Preemptions, th.Dispatches, th.RunCycles})
	}
	s.Recycles = sim.GlobalStats().EventRecycles - recycles
	s.NextDraw = m.K.Rand().Int63()
	return s
}

// neverEnds names the rows whose simulation never ends, on the thread
// loop as on the spin call, so that they cannot be compared: a global
// spinner's 300-cycle slice timer always ends its epoch before the
// watcher's wake arrives, so the ticket holder's successor never sees
// its turn.
var neverEnds = map[string]bool{"slice-300/60/ticket-global": true}

// TestSpinCallMatchesReference runs protocols through the spin call
// (SpinAcquire, SpinUntilLimit, SpinFor) and through the thread loop it
// replaced, on the same configurations, and requires the two simulations
// to agree bit for bit: rounds, end time, energy, CPI, coherence
// traffic, each thread's scheduling counters, the events the kernel
// recycled and the kernel RNG's next draw. The protocols are TAS and
// TTAS through SpinAcquire against the old RMW-then-spin loop, a
// ticket-style FIFO handover, a budgeted spin that gives up, and
// SpinFor, each under every wait policy, at 1 to 60 threads on the
// 40-context Xeon at the default timeslice and at 300 cycles, which is
// shorter than most attempts and epochs, plus 40 threads joined every
// 25,013 cycles by a short-lived thread that oversubscribes the
// scheduler while they spin.
//
// The table must reach a slice-timer Requeue inside a spin and a
// Requeue inside a carried attempt. The test counts the first on the
// spin call: a SpinUntilLimit under a policy with no enter or exit cost
// carries no cost, so each preemption it takes is the slice timer's. It
// counts the second on the reference, as the preemptions inside a
// retry's RMW: the runs agree on every thread's preemptions, and the
// spin call carries that attempt's cost while its thread is parked.
//
// Under the race detector, which keeps state for every goroutine ever
// started (each simulated thread is one), the rows shrink to 2 and 41
// threads and to TAS and the protocols under mbar and DVFS; the full
// table runs without -race.
func TestSpinCallMatchesReference(t *testing.T) {
	threadCounts := []int{1, 2, 39, 40, 41, 60}
	protocols := refProtocols()
	if raceDetector {
		threadCounts = []int{2, 41}
		protocols = slices.DeleteFunc(protocols, func(p refProtocol) bool {
			return p.name != "TAS" && !strings.HasSuffix(p.name, "-local-mbar") && !strings.HasSuffix(p.name, "-dvfs")
		})
	}
	timeslices := []struct {
		name      string
		timeslice sim.Cycles
		duration  sim.Cycles // of an oversubscribed row; others run 300K
	}{
		{"default-slice", 0, 3_100_000}, // past one slice, so oversubscribed rows preempt
		{"slice-300", 300, 150_000},     // shorter than most attempts
	}
	var sliceInSpin, inAttempt uint64
	compare := func(t *testing.T, p refProtocol, cfg Config, n int, period, until sim.Cycles) {
		ref := &refLoop{spin: map[*Thread]*refSpinState{}}
		want := runReference(cfg, p, ref.ops(), n, period, until)
		got := runReference(cfg, p, callOps(&sliceInSpin), n, period, until)
		inAttempt += ref.inAttempt
		if got.Rounds == 0 {
			t.Fatal("no rounds")
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("the spin call and the reference loop differ:\n got %+v\nwant %+v", got, want)
		}
	}
	for _, sl := range timeslices {
		cfg := DefaultConfig(42)
		if sl.timeslice != 0 {
			cfg.Sched.Timeslice = sl.timeslice
		}
		for _, n := range threadCounts {
			for _, p := range protocols {
				name := fmt.Sprintf("%s/%d/%s", sl.name, n, p.name)
				if neverEnds[name] {
					continue
				}
				t.Run(name, func(t *testing.T) {
					until := min(sl.duration, 300_000)
					if n > cfg.Topo.NumContexts() {
						until = sl.duration
					}
					compare(t, p, cfg, n, 0, until)
				})
			}
		}
		cfg.Seed = 7
		for _, p := range protocols {
			name := fmt.Sprintf("spawn-mid-epoch/%s/%s", sl.name, p.name)
			if neverEnds[name] {
				continue
			}
			t.Run(name, func(t *testing.T) {
				compare(t, p, cfg, 40, 25_013, 300_000)
			})
		}
	}
	t.Logf("slice-timer requeues in a spin %d, requeues in an attempt %d", sliceInSpin, inAttempt)
	if sliceInSpin == 0 {
		t.Error("no slice timer preempted a spin")
	}
	if inAttempt == 0 {
		t.Error("no attempt was preempted")
	}
}
