package sim

import "fmt"

// ProcState describes the lifecycle of a simulated thread.
type ProcState int

const (
	// ProcNew means the coroutine has not started executing the body yet.
	ProcNew ProcState = iota
	// ProcRunning means the Proc is the currently executing simulation actor.
	ProcRunning
	// ProcParked means the Proc is blocked waiting for a Wake.
	ProcParked
	// ProcDone means the body returned, or Drain released the proc while
	// it was still parked (see Kernel.Run).
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
// Every resume of a proc, its start included, is a handoff through the
// driver stack: the woken proc becomes the driver, and on park it keeps
// popping and executing events inline (Kernel.drive), so a sleep whose
// wake-up is the next event costs no switch at all. A handover to another
// proc that is not on the driver stack costs one resume, which the driver
// makes itself, staying on the stack (stacked) until control comes back
// down; the resumed proc's later yield is the one matching switch. A
// handover to a proc already on the stack costs no resume: each level
// above it yields once, and it continues inline (see Kernel.handoff).
//
// A started proc whose body has not returned sits on its kernel's list of
// live procs. Drain ends the simulation: it releases every proc still
// parked when the queue empties, so the proc becomes ProcDone and its
// coroutine's goroutine exits instead of outliving the simulation. A
// released body unwinds without running simulation code (see Run).
type Proc struct {
	k     *Kernel
	id    int
	name  string
	state ProcState
	body  func(*Proc)

	next  func() (struct{}, bool) // resumes the coroutine (iter.Pull)
	stop  func()                  // ends it: the pending yield returns false
	yield func(struct{}) bool     // suspends it back to whoever resumed it

	// prevLive and nextLive thread the kernel's intrusive list of started
	// procs whose body has not returned (Kernel.live), so tracking them
	// allocates nothing and a finished proc is pinned by no one.
	prevLive, nextLive *Proc

	// stacked is true while the proc, driving the event loop inside its
	// park, waits in Kernel.handoff for a proc it resumed to yield back.
	// Its coroutine is mid-call then, so it can only be handed the loop
	// by unwinding, never resumed.
	stacked bool

	// WakeVal carries an optional token from the waker to the parked
	// proc (e.g. futex wake reason). Zero when woken by a timer.
	WakeVal uint64
}

// NewProc creates a simulated thread that will execute body when started.
// The Proc does not run until its first Wake, or the wake-up Go schedules.
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

// run is the coroutine: execute the body, then release control by driving
// the event loop until control must go down the driver stack (see
// Kernel.handoff). iter.Pull re-raises a panic anywhere in it (the
// body or an event callback executed while driving) in whoever resumed
// the coroutine, so it propagates out of Kernel.Run. The one exception is
// errReleased: while Drain releases the proc, the body unwinds with it
// and run recovers it, so the coroutine ends quietly.
func (p *Proc) run(yield func(struct{}) bool) {
	p.yield = yield
	defer func() {
		if p.k.releasing {
			if r := recover(); r != nil && r != errReleased {
				panic(r)
			}
		}
	}()
	p.body(p)
	p.k.unlink(p)
	p.state = ProcDone
	p.k.drive(nil)
}

// park suspends the calling proc until it is woken. The proc keeps
// executing events inline as the driver and continues without suspending
// if the next wake-up is its own, or if control comes back down the driver
// stack to it. A yield that returns false means Drain is releasing the
// proc: the body unwinds.
func (p *Proc) park() {
	p.k.checkLive()
	p.state = ProcParked
	if p.k.drive(p) {
		p.state = ProcRunning
		return
	}
	if !p.yield(struct{}{}) {
		panic(errReleased)
	}
}

// Park blocks the proc until some other actor calls Wake. The returned
// value is the WakeVal supplied by the waker.
func (p *Proc) Park() uint64 {
	p.WakeVal = 0
	p.park()
	return p.WakeVal
}

// Wake unparks p with the given token, or starts p if it is new. It is
// legal only as an event callback's one last action (no scheduling, RNG
// draws or second Wake after it): p resumes when the callback returns, by
// tail handoff, or inline when p is the driver executing the callback in
// its own park. A Wake from proc context, a second Wake in one callback
// and a Wake of a proc that is neither new nor parked panic with a message
// that names p, so waking a proc that Drain released panics as waking a
// finished one does.
func (p *Proc) Wake(val uint64) {
	k := p.k
	k.checkLive()
	p.checkWakeable()
	if !k.inCallback || k.deferred != nil {
		panic(fmt.Sprintf("sim: Wake of proc %q is not the one last action of an event callback", p.name))
	}
	p.WakeVal = val
	k.deferred = p
}

// checkWakeable panics unless p is new or parked.
func (p *Proc) checkWakeable() {
	if p.state != ProcNew && p.state != ProcParked {
		panic(fmt.Sprintf("sim: Wake on proc %q in state %v", p.name, p.state))
	}
}

// Sleep advances virtual time by d for this proc: it schedules its own
// wake-up and parks. Other events run in the meantime.
func (p *Proc) Sleep(d Cycles) {
	if d == 0 {
		return
	}
	p.k.scheduleWake(d, p)
	p.park()
}

// Done reports whether the proc body has returned or Drain released it.
func (p *Proc) Done() bool { return p.state == ProcDone }

// Go is a convenience: create a proc and schedule its start, a typed
// wake-up, at now+delay.
func (k *Kernel) Go(id int, name string, delay Cycles, body func(*Proc)) *Proc {
	p := k.NewProc(id, name, body)
	k.scheduleWake(delay, p)
	return p
}
