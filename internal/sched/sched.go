// Package sched models the operating-system CPU scheduler of the
// simulated machine: dispatching software threads onto hardware contexts,
// FIFO time-slicing under oversubscription, and idle-state (C-state)
// management of vacated contexts.
//
// The scheduler is what makes the paper's oversubscription effects
// reproducible: with more threads than contexts, a spinning thread burns
// its whole timeslice while the lock holder (or, for fair locks, the next
// thread in line) sits on the run queue — the "livelock" behaviour that
// destroys TICKET throughput in MySQL and SQLite (§6). It also charges
// the idle-to-active exit latency that dominates futex turnaround time,
// including the deep-idle blow-up for long sleeps (§4.3, Figure 6).
package sched

import (
	"fmt"

	"lockin/internal/power"
	"lockin/internal/sim"
	"lockin/internal/topo"
)

// Config holds the scheduler's cost constants, in cycles.
type Config struct {
	Timeslice     sim.Cycles // quantum before a runnable peer preempts
	CtxSwitch     sim.Cycles // direct cost of a context switch
	SchedDelay    sim.Cycles // run-queue/scheduling latency on wake-up
	IdleDeepAfter sim.Cycles // idle duration before a context drops to deep idle
	ExitShallow   sim.Cycles // shallow-idle (C1) exit latency
	ExitDeep      sim.Cycles // deep-idle (C6) exit latency

	// IdleVF is the DVFS vote of an idle context. Ivy Bridge keeps the
	// idle sibling's vote at the nominal point, which is why per-thread
	// DVFS only pays off once both hyper-threads lower their VF (§4.2).
	IdleVF power.VF

	// WakeJitter adds uniform random latency in [0, WakeJitter) to every
	// Unblock→dispatch path, modelling IPI/scheduler variability. Without
	// it the discrete-event world is unrealistically periodic: sleepers
	// phase-lock onto free-lock windows that real systems mostly miss.
	WakeJitter sim.Cycles
}

// DefaultConfig returns constants calibrated against the paper's Xeon:
// ≈7000-cycle futex turnaround (≈2700 wake call + idle exit + scheduling)
// and turnaround explosion past ≈600K-cycle sleeps.
func DefaultConfig() Config {
	return Config{
		Timeslice:     3_000_000, // ≈1 ms at 2.8 GHz (CFS under load)
		CtxSwitch:     1_500,
		SchedDelay:    2_300,
		IdleDeepAfter: 600_000,
		ExitShallow:   2_000,
		ExitDeep:      90_000,
		WakeJitter:    4_000,
	}
}

// State is a software thread's lifecycle state.
type State int

const (
	// Ready: waiting on the run queue for a context.
	Ready State = iota
	// Dispatching: a context is reserved, the dispatch event is pending.
	Dispatching
	// Running: executing on a hardware context.
	Running
	// Blocked: descheduled (e.g. sleeping on a futex).
	Blocked
	// Exited: the body returned.
	Exited
)

func (s State) String() string {
	switch s {
	case Ready:
		return "ready"
	case Dispatching:
		return "dispatching"
	case Running:
		return "running"
	case Blocked:
		return "blocked"
	case Exited:
		return "exited"
	}
	return fmt.Sprintf("State(%d)", int(s))
}

// Thread is a schedulable software thread bound to a simulated Proc.
type Thread struct {
	s    *Scheduler
	p    *sim.Proc
	id   int
	name string

	state     State
	ctx       int // hardware context while Running/Dispatching, else -1
	sliceLeft sim.Cycles
	activity  power.Activity // power class to charge while running
	vf        power.VF

	// wakePermit records an Unblock that arrived before the thread
	// actually blocked (e.g. a futex wake racing with the descheduling
	// tail of a futex wait); the next Deschedule consumes it and changes
	// nothing else.
	wakePermit bool

	// The call in flight (see Call): the step that continues it after a
	// carried cost, the part of that cost not run yet, and the value
	// Await returns once returned is set. onDispatch is the step the
	// next dispatch runs, left by Deschedule or Requeue (nil: the
	// dispatch wakes the thread).
	call       Call
	left       sim.Cycles
	returned   bool
	ret        uint64
	onDispatch Call

	// Stats
	Preemptions uint64
	Dispatches  uint64
	RunCycles   sim.Cycles
}

// ID returns the thread id (also its pinning hint).
func (t *Thread) ID() int { return t.id }

// Name returns the thread's debug name.
func (t *Thread) Name() string { return t.name }

// State returns the thread's scheduling state.
func (t *Thread) State() State { return t.state }

// Ctx returns the hardware context the thread runs on, or -1.
func (t *Thread) Ctx() int { return t.ctx }

// Proc exposes the underlying simulated proc.
func (t *Thread) Proc() *sim.Proc { return t.p }

// Scheduler returns the owning scheduler.
func (t *Thread) Scheduler() *Scheduler { return t.s }

type ctxState struct {
	running *Thread
	// reserved is set between choosing a context for a wake-up and the
	// dispatch event, so concurrent wake-ups don't double-book it.
	reserved bool
	deep     bool
	deepEvt  sim.Event
}

// Scheduler owns the hardware contexts and the global FIFO run queue.
type Scheduler struct {
	k     *sim.Kernel
	cfg   Config
	topo  topo.Topology
	meter *power.Meter

	ctxs []ctxState
	runq []*Thread

	threads []*Thread
	live    int
}

// New creates a scheduler with all contexts idle at the configured idle
// VF vote.
func New(k *sim.Kernel, cfg Config, t topo.Topology, meter *power.Meter) *Scheduler {
	s := &Scheduler{k: k, cfg: cfg, topo: t, meter: meter, ctxs: make([]ctxState, t.NumContexts())}
	for i := range s.ctxs {
		meter.SetVF(i, cfg.IdleVF)
	}
	return s
}

// Config returns the scheduler's constants.
func (s *Scheduler) Config() Config { return s.cfg }

// Kernel returns the simulation kernel.
func (s *Scheduler) Kernel() *sim.Kernel { return s.k }

// Live returns the number of threads that have not exited.
func (s *Scheduler) Live() int { return s.live }

// Oversubscribed reports whether some thread is waiting for a context.
func (s *Scheduler) Oversubscribed() bool { return len(s.runq) > 0 }

// Spawn creates a thread executing body and enqueues it for dispatch at
// the current virtual time.
func (s *Scheduler) Spawn(name string, body func(*Thread)) *Thread {
	t := &Thread{s: s, id: len(s.threads), name: name, ctx: -1, state: Ready, activity: power.Compute, vf: power.VFMax}
	s.threads = append(s.threads, t)
	s.live++
	t.p = s.k.NewProc(t.id, name, func(p *sim.Proc) {
		body(t)
		t.exit()
	})
	// The proc is started lazily by its first dispatch; until then the
	// thread sits in the ready queue like any other wake-up.
	s.k.ScheduleCall(0, enqueueCall, t, 0, 0)
	return t
}

// enqueueCall, dispatchCall and deepIdleCall are the ScheduleCall
// callbacks of the scheduler's hot paths, so a wake-up/dispatch cycle
// allocates no closures.
func enqueueCall(obj any, _, _ uint64) {
	t := obj.(*Thread)
	t.s.enqueue(t, 0)
}

func dispatchCall(obj any, ctx, _ uint64) {
	t := obj.(*Thread)
	t.s.dispatch(t, int(ctx))
}

func deepIdleCall(obj any, a, _ uint64) {
	s := obj.(*Scheduler)
	ctx := int(a)
	c := &s.ctxs[ctx]
	c.deepEvt = sim.Event{}
	if c.running == nil && !c.reserved {
		c.deep = true
		s.meter.SetActivity(ctx, power.IdleDeep)
	}
}

// enqueue makes t runnable: either reserve an idle context and schedule
// the dispatch, or append to the run queue. extraDelay is added wake
// latency (e.g. futex wake path) before the thread becomes dispatchable.
func (s *Scheduler) enqueue(t *Thread, extraDelay sim.Cycles) {
	if t.state == Exited {
		return
	}
	ctx := s.pickIdleCtx(t)
	if ctx < 0 {
		t.state = Ready
		s.runq = append(s.runq, t)
		// Under oversubscription the wake latency overlaps queueing.
		return
	}
	s.reserve(ctx)
	delay := extraDelay + s.exitLatency(ctx) + s.cfg.SchedDelay + s.cfg.CtxSwitch
	t.state = Dispatching
	s.k.ScheduleCall(delay, dispatchCall, t, uint64(ctx), 0)
}

// pickIdleCtx prefers the thread's pinned context (ctx == thread id) when
// free, mirroring the paper's placement policy, then the lowest-numbered
// idle context.
func (s *Scheduler) pickIdleCtx(t *Thread) int {
	if t.id < len(s.ctxs) {
		c := &s.ctxs[t.id]
		if c.running == nil && !c.reserved {
			return t.id
		}
	}
	for i := range s.ctxs {
		if s.ctxs[i].running == nil && !s.ctxs[i].reserved {
			return i
		}
	}
	return -1
}

func (s *Scheduler) reserve(ctx int) {
	c := &s.ctxs[ctx]
	c.reserved = true
	s.k.Cancel(c.deepEvt)
	c.deepEvt = sim.Event{}
}

// exitLatency is the idle-state exit cost of a context at this instant.
func (s *Scheduler) exitLatency(ctx int) sim.Cycles {
	if s.ctxs[ctx].deep {
		return s.cfg.ExitDeep
	}
	if s.ctxs[ctx].running == nil {
		return s.cfg.ExitShallow
	}
	return 0
}

// dispatch places t on ctx and hands control to its proc.
func (s *Scheduler) dispatch(t *Thread, ctx int) {
	if t.state == Exited {
		s.release(ctx)
		return
	}
	c := &s.ctxs[ctx]
	c.running = t
	c.reserved = false
	c.deep = false
	t.ctx = ctx
	t.state = Running
	t.sliceLeft = s.cfg.Timeslice
	t.Dispatches++
	s.meter.SetVF(ctx, t.vf)
	s.meter.SetActivity(ctx, t.activity)
	if t.p.State() == sim.ProcNew {
		t.p.Start()
	} else if c := t.onDispatch; c != nil {
		// The thread was descheduled in a call: the call goes on here,
		// where the thread would have resumed.
		t.onDispatch = nil
		c.Next()
	} else {
		t.p.Wake(0)
	}
}

// release vacates a context: dispatch the next ready thread or idle it.
func (s *Scheduler) release(ctx int) {
	c := &s.ctxs[ctx]
	c.running = nil
	c.reserved = false
	if len(s.runq) > 0 {
		next := s.runq[0]
		s.runq = s.runq[:copy(s.runq, s.runq[1:])]
		s.reserve(ctx)
		next.state = Dispatching
		s.k.ScheduleCall(s.cfg.CtxSwitch, dispatchCall, next, uint64(ctx), 0)
		return
	}
	// Idle the context: shallow now, deep after the threshold.
	c.deep = false
	s.meter.SetActivity(ctx, power.IdleShallow)
	s.meter.SetVF(ctx, s.cfg.IdleVF)
	c.deepEvt = s.k.ScheduleCall(s.cfg.IdleDeepAfter, deepIdleCall, s, uint64(ctx), 0)
}

// SetActivity changes the power class charged for this thread; applied
// immediately if it is running.
func (t *Thread) SetActivity(a power.Activity) {
	t.activity = a
	if t.state == Running {
		t.s.meter.SetActivity(t.ctx, a)
	}
}

// Activity returns the thread's current power class.
func (t *Thread) Activity() power.Activity { return t.activity }

// SetVF requests a DVFS point for whatever context the thread occupies.
func (t *Thread) SetVF(v power.VF) {
	t.vf = v
	if t.state == Running {
		t.s.meter.SetVF(t.ctx, v)
	}
}

// VF returns the thread's requested DVFS point.
func (t *Thread) VF() power.VF { return t.vf }

// mustBeRunning guards thread operations that only make sense on-CPU.
func (t *Thread) mustBeRunning(op string) {
	if t.state != Running {
		panic(fmt.Sprintf("sched: %s on thread %q in state %v", op, t.name, t.state))
	}
}

// Run consumes cost cycles of CPU, honouring timeslice preemption and the
// context's effective DVFS slowdown. The thread may migrate contexts
// across preemptions.
func (t *Thread) Run(cost sim.Cycles) {
	t.mustBeRunning("Run")
	for cost > 0 {
		chunk, wait, ok := t.step(cost)
		if !ok {
			t.Preempt()
			continue
		}
		t.p.Sleep(wait)
		t.ran(chunk)
		cost -= chunk
	}
}

// step begins the next chunk of a Run with cost > 0 cycles left. It
// refreshes a spent slice and returns the part of cost that the slice
// covers, and how long that chunk takes at the context's current
// slowdown. The caller waits that long, then reports the chunk to ran.
// step is Run's loop body, so Carry, which waits out each chunk as an
// event callback instead of sleeping the thread, runs the same steps.
// When the slice is spent while a peer waits for a context, step changes
// nothing and returns ok false: the thread must be preempted first.
func (t *Thread) step(cost sim.Cycles) (chunk, wait sim.Cycles, ok bool) {
	if t.sliceLeft == 0 {
		if t.s.Oversubscribed() {
			return 0, 0, false
		}
		t.sliceLeft = t.s.cfg.Timeslice
	}
	chunk = cost
	if chunk > t.sliceLeft {
		chunk = t.sliceLeft
	}
	slow := t.s.meter.EffectiveSlowdown(t.ctx)
	return chunk, sim.Cycles(float64(chunk) * slow), true
}

// ran accounts a chunk that step began, once its wait is over.
func (t *Thread) ran(chunk sim.Cycles) {
	t.RunCycles += chunk
	t.sliceLeft -= chunk
}

// SliceLeft returns the remaining quantum of the running thread.
func (t *Thread) SliceLeft() sim.Cycles {
	t.mustBeRunning("SliceLeft")
	return t.sliceLeft
}

// ChargeSlice deducts d cycles from the current quantum (used for time
// spent parked-but-on-CPU, e.g. simulated spin epochs).
func (t *Thread) ChargeSlice(d sim.Cycles) {
	if d >= t.sliceLeft {
		t.sliceLeft = 0
	} else {
		t.sliceLeft -= d
	}
}

// Preempt puts the thread at the back of the run queue and yields its
// context. It returns once the thread is dispatched again.
func (t *Thread) Preempt() {
	t.Requeue(nil)
	t.p.Park()
}

// Requeue preempts the thread, as Preempt does, without parking it: a
// call's step preempts a thread already parked in Await. The dispatch
// that follows runs then.Next() where it would have woken the thread,
// or wakes it when then is nil.
func (t *Thread) Requeue(then Call) {
	t.mustBeRunning("Requeue")
	t.Preemptions++
	ctx := t.ctx
	t.ctx = -1
	t.state = Ready
	t.onDispatch = then
	t.s.runq = append(t.s.runq, t)
	t.s.release(ctx)
}

// Block deschedules the thread (futex sleep). It returns the wake token
// once another actor calls Unblock and the thread is dispatched again.
// If an Unblock already arrived (wake racing with the descheduling
// path), Block consumes the permit and returns immediately.
func (t *Thread) Block() uint64 {
	if !t.Deschedule(nil) {
		return 0
	}
	return t.p.Park()
}

// Deschedule takes the thread off its context, as Block does, without
// parking it: a call's step deschedules a thread already parked in
// Await. The dispatch that follows the next Unblock runs then.Next()
// where it would have woken the thread, or wakes it when then is nil. If
// an Unblock already arrived, Deschedule consumes the permit, changes
// nothing else and reports false: the thread goes on at once.
func (t *Thread) Deschedule(then Call) bool {
	t.mustBeRunning("Deschedule")
	if t.wakePermit {
		t.wakePermit = false
		return false
	}
	ctx := t.ctx
	t.ctx = -1
	t.state = Blocked
	t.onDispatch = then
	t.s.release(ctx)
	return true
}

// Call is thread code that runs as kernel callbacks while its thread
// stays parked in Await, so that its steps cost no coroutine switch
// (DESIGN.md invariant 8 in internal/sim). Each step runs at the instant
// and in the place where the thread would have run it, with nothing in
// between, and ends the call's part of the callback: it passes a cost to
// Carry, deschedules the thread with Deschedule, preempts it with
// Requeue, arms an event that continues the call, or ends the call with
// Return.
type Call interface {
	// Next runs the step that follows a cost passed to Carry, or the
	// dispatch that ends a Deschedule or a Requeue. It runs as a kernel
	// callback, or on the thread when the call starts with a cost that
	// takes no time.
	Next()
}

// Carry runs cost cycles of a call as Run would, then c.Next(). It takes
// Run's steps; each chunk's wait is a ScheduleCall where Run sleeps, at
// the same instant and taking one seq as Run's wake-up does, so the
// thread stays parked. Where a step finds the slice spent while a peer
// waits, Carry requeues the thread as Run would preempt it, and the
// dispatch that follows carries on with the rest.
func (t *Thread) Carry(cost sim.Cycles, c Call) {
	t.call, t.left = c, cost
	t.carry()
}

func (t *Thread) carry() {
	for t.left > 0 {
		chunk, wait, ok := t.step(t.left)
		if !ok {
			t.Requeue((*carrier)(t))
			return
		}
		if wait > 0 {
			t.s.k.ScheduleCall(wait, carryCall, t, uint64(chunk), 0)
			return
		}
		// Sleep(0) returns at once.
		t.ran(chunk)
		t.left -= chunk
	}
	t.call.Next()
}

// carrier is the Call that a dispatch runs to carry on with a cost whose
// chunks a Requeue interrupted.
type carrier Thread

func (c *carrier) Next() { (*Thread)(c).carry() }

// carryCall ends the wait of one chunk of a carried cost.
func carryCall(obj any, chunk, _ uint64) {
	t := obj.(*Thread)
	t.ran(sim.Cycles(chunk))
	t.left -= sim.Cycles(chunk)
	t.carry()
}

// Return ends the thread's call: Await returns val. Called from a
// callback it wakes the thread, so it must be the callback's last
// action. Called on the thread, before Await parks, it wakes nothing:
// Await finds the call returned.
func (t *Thread) Return(val uint64) {
	t.ret, t.returned = val, true
	if t.p.State() == sim.ProcParked {
		t.p.Wake(0)
	}
}

// Await parks the thread while its call runs and returns the value the
// call passed to Return. The thread resumes once, when the call returns.
func (t *Thread) Await() uint64 {
	if !t.returned {
		t.p.Park()
	}
	t.returned = false
	return t.ret
}

// Unblock makes a blocked thread runnable after extraDelay (the waker's
// side of the wake latency) plus scheduler jitter. If the target has not
// blocked yet — the waker raced ahead of its descheduling path — a wake
// permit is left for the upcoming Block. Safe to call from kernel or
// proc context.
func (s *Scheduler) Unblock(t *Thread, extraDelay sim.Cycles) {
	if t.state != Blocked {
		t.wakePermit = true
		return
	}
	if s.cfg.WakeJitter > 0 {
		extraDelay += sim.Cycles(s.k.Rand().Int63n(int64(s.cfg.WakeJitter)))
	}
	s.enqueue(t, extraDelay)
}

// exit vacates the context and marks the thread done.
func (t *Thread) exit() {
	ctx := t.ctx
	t.state = Exited
	t.ctx = -1
	t.s.live--
	if ctx >= 0 {
		t.s.release(ctx)
	}
}
