package sim

import (
	"fmt"
	"iter"
)

// ProcState describes the lifecycle of a simulated thread.
type ProcState int

const (
	// ProcNew means the coroutine has not started executing the body yet.
	ProcNew ProcState = iota
	// ProcRunning means the Proc is the currently executing simulation actor.
	ProcRunning
	// ProcParked means the Proc is blocked waiting for a Wake.
	ProcParked
	// ProcDone means the body returned.
	ProcDone
)

func (s ProcState) String() string {
	switch s {
	case ProcNew:
		return "new"
	case ProcRunning:
		return "running"
	case ProcParked:
		return "parked"
	case ProcDone:
		return "done"
	}
	return fmt.Sprintf("ProcState(%d)", int(s))
}

// Proc is a simulated thread: an iter.Pull coroutine whose execution is
// interleaved with virtual time by the kernel. Exactly one Proc (or Run's
// goroutine) runs at a time, and control moves between them by coroutine
// switches, which bypass the Go scheduler.
//
// A proc suspends in one of two modes. After a synchronous nested
// Wake/Start (nested) it suspends back to the waker, which resumes
// mid-callback. Otherwise the proc is the driver: on park it keeps popping
// and executing events inline (Kernel.drive), so a sleep whose wake-up is
// the next event costs no switch at all. A handover to another proc costs
// two: the driver suspends to the trampoline in Kernel.Run, which resumes
// the new driver.
type Proc struct {
	k     *Kernel
	id    int
	name  string
	state ProcState
	body  func(*Proc)

	next  func() (struct{}, bool) // resumes the coroutine (iter.Pull)
	yield func(struct{}) bool     // suspends it back to whoever resumed it
	// nested is true when the proc was resumed by a synchronous
	// Wake/Start and yields back to the waker on park; false when it
	// was resumed by the trampoline as the event loop's driver.
	nested bool

	// wokenInline records a Wake delivered while this proc was itself
	// driving the event loop: the waking callback runs beneath the
	// proc's own park frame, so the wake is marked here and the body
	// resumes when the callback returns (see Kernel.drive).
	wokenInline bool

	// WakeVal carries an optional token from the waker to the parked
	// proc (e.g. futex wake reason). Zero when woken by a timer.
	WakeVal uint64
}

// NewProc creates a simulated thread that will execute body when started.
// The Proc does not run until Start (typically via a scheduled event).
func (k *Kernel) NewProc(id int, name string, body func(*Proc)) *Proc {
	return &Proc{k: k, id: id, name: name, state: ProcNew, body: body}
}

// ID returns the numeric identifier given at creation.
func (p *Proc) ID() int { return p.id }

// Name returns the debug name given at creation.
func (p *Proc) Name() string { return p.name }

// State returns the current lifecycle state.
func (p *Proc) State() ProcState { return p.state }

// Kernel returns the owning kernel.
func (p *Proc) Kernel() *Kernel { return p.k }

// Now returns the kernel's current virtual time.
func (p *Proc) Now() Cycles { return p.k.now }

// Start creates the Proc's coroutine and runs it until its first park.
// Must be called from kernel context (an event callback) or before Run.
func (p *Proc) Start() {
	if p.state != ProcNew {
		panic("sim: Start on a non-new Proc")
	}
	p.next, _ = iter.Pull(p.run)
	p.k.transfer(p)
}

// run is the coroutine: execute the body, then release control — back to
// a nested waker by returning, or, when this proc was the driver, by
// driving the event loop until it is handed on. iter.Pull re-raises a
// panic anywhere in it (the body or an event callback executed while
// driving) in whoever resumed the coroutine, so it propagates out of
// Kernel.Run.
func (p *Proc) run(yield func(struct{}) bool) {
	p.yield = yield
	p.body(p)
	p.state = ProcDone
	if !p.nested {
		p.k.drive(nil)
	}
}

// park suspends the calling proc until it is woken. A nested-woken proc
// suspends back to its waker; a driver keeps executing events inline and,
// if the next wake-up is its own, continues without suspending.
func (p *Proc) park() {
	p.state = ProcParked
	if !p.nested && p.k.drive(p) {
		p.state = ProcRunning
		return
	}
	p.yield(struct{}{})
}

// Park blocks the proc until some other actor calls Wake. The returned
// value is the WakeVal supplied by the waker.
func (p *Proc) Park() uint64 {
	p.WakeVal = 0
	p.park()
	return p.WakeVal
}

// Wake unparks p with the given token. Called from a running proc, control
// transfers to p immediately and returns here once p parks or finishes
// again. Called from an event callback, the wake must be the callback's
// last observable action (no scheduling, RNG draws or further wakes after
// it — consecutive wakes are fine) and delivery is optimized: p resumes
// when the callback returns, by tail handoff, or inline when the callback
// is already executing inside p's own park as the driver.
func (p *Proc) Wake(val uint64) {
	if p.state != ProcParked {
		panic(fmt.Sprintf("sim: Wake on proc %q in state %v", p.name, p.state))
	}
	p.WakeVal = val
	k := p.k
	if k.driver == p {
		p.wokenInline = true
		return
	}
	if k.inCallback {
		if q := k.deferred; q != nil {
			// Second wake from one callback: run the first-woken proc to
			// its next park now, preserving wake order, and defer this one.
			k.deferred = nil
			k.transfer(q)
		}
		k.deferred = p
		return
	}
	k.transfer(p)
}

// WakeAt schedules p to be woken at now+d with the given token and returns
// the timer event (cancellable). The wake-up is a typed event — no closure
// is allocated, and the kernel delivers it with at most two coroutine
// switches (none when p itself is driving the event loop).
func (p *Proc) WakeAt(d Cycles, val uint64) Event {
	return p.k.scheduleWake(d, p, val)
}

// Sleep advances virtual time by d for this proc: it schedules its own
// wake-up and parks. Other events run in the meantime.
func (p *Proc) Sleep(d Cycles) {
	if d == 0 {
		return
	}
	p.k.scheduleWake(d, p, 0)
	p.park()
}

// Done reports whether the proc body has returned.
func (p *Proc) Done() bool { return p.state == ProcDone }

// startProc is the ScheduleCall callback used by Go.
func startProc(obj any, _, _ uint64) { obj.(*Proc).Start() }

// Go is a convenience: create a proc and schedule its start at now+delay.
func (k *Kernel) Go(id int, name string, delay Cycles, body func(*Proc)) *Proc {
	p := k.NewProc(id, name, body)
	k.ScheduleCall(delay, startProc, p, 0, 0)
	return p
}
