// Package sim provides a deterministic discrete-event simulation kernel.
//
// The kernel maintains a virtual clock measured in CPU cycles and an event
// queue ordered by (time, insertion sequence). Simulated threads (Proc) run
// as iter.Pull coroutines, so at most one of them executes at any instant
// and control moves between them by direct coroutine switches that never
// enter the Go scheduler: simulations are fully deterministic and race-free,
// and their only source of randomness is the kernel's seeded RNG.
//
// The event queue is a calendar for the near future plus a 4-ary min-heap
// for the rest: an event due within calendarSpan cycles of the clock is
// chained into one of nbuckets buckets of bucketWidth cycles, and only
// later events (far timers) go to the heap. Events are pooled: fired and
// cancelled events are recycled through a free list, so steady-state
// scheduling does not allocate. See DESIGN.md for the determinism
// invariants this structure must preserve.
package sim

import (
	"errors"
	"fmt"
	"iter"
	"math/bits"
	"math/rand"
)

// The calendar's geometry. Bucket b chains the events whose at>>bucketBits
// is congruent to b modulo nbuckets. push admits only events less than
// nbuckets buckets past the clock's, and the clock never passes a pending
// event, so a bucket never holds two spans at once.
const (
	bucketBits   = 4
	bucketWidth  = 1 << bucketBits // cycles per bucket
	nbuckets     = 1024
	calendarSpan = nbuckets * bucketWidth
)

// Cycles is a duration or instant expressed in reference CPU cycles
// (cycles of the maximum-frequency clock of the simulated machine).
type Cycles uint64

// event is the pooled internal representation of a scheduled callback.
// Exactly one of call or proc describes the action: call is a callback
// invoked as call(obj, a, b) (Schedule's closure travels as obj, run by
// callFunc), and proc is a typed wake-up.
type event struct {
	at   Cycles
	seq  uint64
	next *event // the next event in its calendar bucket's ring

	call func(obj any, a, b uint64)
	obj  any
	proc *Proc
	a, b uint64

	gen       uint32
	cancelled bool
}

// Event is a cancellable handle to a scheduled event. It is a small value
// (not a pointer): the generation field detects whether the underlying
// pooled event slot still belongs to this schedule, so holding a handle to
// an event that already fired is harmless and the zero Event is inert.
type Event struct {
	e   *event
	gen uint32
}

// live returns the underlying event if the handle still refers to the
// scheduled (not yet fired or reclaimed) event, else nil.
func (ev Event) live() *event {
	if ev.e == nil || ev.e.gen != ev.gen {
		return nil
	}
	return ev.e
}

// At returns the virtual time at which the event fires, or zero if the
// handle is no longer live (fired, reclaimed, or the zero Event).
func (ev Event) At() Cycles {
	if e := ev.live(); e != nil {
		return e.at
	}
	return 0
}

// Cancelled reports whether the event will not fire: cancelled, already
// fired and reclaimed, or the zero handle.
func (ev Event) Cancelled() bool {
	e := ev.live()
	return e == nil || e.cancelled
}

// Kernel is the simulation core: virtual clock, event queue and RNG.
// The zero value is not usable; construct with NewKernel.
type Kernel struct {
	now Cycles

	// buckets[b] is the last event of bucket b's chain: a ring through
	// event.next, in (at, seq) order, whose last event links back to its
	// first. occupied has bit b set while the chain is non-empty, and
	// nchained counts the chained events.
	buckets  [nbuckets]*event
	occupied [nbuckets / 64]uint64
	nchained int

	heap    []*event // 4-ary min-heap ordered by (at, seq): events past the calendar
	free    []*event // recycled event slots
	ncancel int      // cancelled events still queued
	seq     uint64
	rng     *rand.Rand
	stopped bool
	until   Cycles // time limit of the active Run, 0 = none

	// handoffTo is the stacked proc that the driver stack is unwinding
	// to: a driver popped its wake-up (or delivered its tail Wake) and
	// found it suspended below on the stack, so every level above it
	// yields in turn and the proc continues inline once control is back
	// (see handoff). nil while no unwinding is in progress.
	handoffTo *Proc

	// inCallback is true while an event callback is executing: the only
	// place a Wake is legal, as the callback's one last action. The Wake
	// records its proc in deferred, and drive delivers it when the
	// callback returns, so the woken proc takes over the event loop (or
	// the driver continues inline, if it woke itself). deferred is nil
	// while no Wake awaits that delivery.
	inCallback bool
	deferred   *Proc

	// live heads the list of started procs whose body has not returned,
	// threaded through Proc.prevLive/nextLive. Drain releases whatever is
	// still on it once the queue is empty.
	live *Proc
	// releasing is true while Drain releases those procs. A released body
	// that reaches the kernel (park, Wake or a schedule) unwinds with
	// errReleased instead of acting.
	releasing bool

	// nrecycled/ncompact/nresumes/hiwater are kernel-local
	// instrumentation counters, deliberately plain (not atomic): the hot
	// loop bumps them for free and flushStats folds them into the
	// process-wide telemetry totals at Run exit (see stats.go).
	nrecycled uint64
	ncompact  uint64
	nresumes  uint64
	hiwater   int
}

// NewKernel returns a kernel with its clock at zero and the RNG seeded
// with seed (use a fixed seed for reproducible runs).
func NewKernel(seed int64) *Kernel {
	return &Kernel{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time.
func (k *Kernel) Now() Cycles { return k.now }

// Rand returns the kernel's deterministic RNG. It must only be used from
// simulation context (kernel loop or a running Proc).
func (k *Kernel) Rand() *rand.Rand { return k.rng }

// alloc takes an event slot from the free list (or allocates one), stamps
// it with the fire time and the next sequence number, and returns it.
func (k *Kernel) alloc(d Cycles) *event {
	k.checkLive()
	var e *event
	if n := len(k.free); n > 0 {
		e = k.free[n-1]
		k.free[n-1] = nil
		k.free = k.free[:n-1]
	} else {
		e = &event{}
	}
	e.at = k.now + d
	e.seq = k.seq
	k.seq++
	return e
}

// recycle returns a popped event slot to the free list. Bumping the
// generation invalidates any outstanding Event handles to it.
func (k *Kernel) recycle(e *event) {
	e.gen++
	e.next = nil
	e.call = nil
	e.obj = nil
	e.proc = nil
	e.a, e.b = 0, 0
	e.cancelled = false
	k.free = append(k.free, e)
	k.nrecycled++
}

// Schedule registers fn to run at now+d and returns a handle that can be
// cancelled. The closure fn is allocated by the caller; hot paths should
// prefer ScheduleCall, which needs no per-call closure.
func (k *Kernel) Schedule(d Cycles, fn func()) Event {
	return k.ScheduleCall(d, callFunc, fn, 0, 0)
}

// callFunc runs a Schedule'd closure. A func value fits an interface
// without allocating, so carrying fn as obj costs nothing extra.
func callFunc(fn any, _, _ uint64) { fn.(func())() }

// ScheduleCall registers call(obj, a, b) to run at now+d. Unlike Schedule
// it captures no environment: with a package-level call func and a pointer
// obj, scheduling is allocation-free in steady state.
func (k *Kernel) ScheduleCall(d Cycles, call func(obj any, a, b uint64), obj any, a, b uint64) Event {
	e := k.alloc(d)
	e.call = call
	e.obj = obj
	e.a, e.b = a, b
	k.push(e)
	return Event{e: e, gen: e.gen}
}

// scheduleWake registers a typed wake-up of p at now+d. It carries no
// token: drive delivers it with WakeVal 0, as a timer's.
func (k *Kernel) scheduleWake(d Cycles, p *Proc) {
	e := k.alloc(d)
	e.proc = p
	k.push(e)
}

// Cancel prevents a scheduled event from firing. Cancelling an event that
// already fired or was already cancelled is a no-op, as is cancelling the
// zero Event. Cancelled entries are skipped lazily at pop; when they
// outnumber the live ones the queue is compacted so a workload that cancels
// most of its timers (futex timeouts beaten by wakes) cannot grow it
// without bound.
func (k *Kernel) Cancel(ev Event) {
	e := ev.live()
	if e == nil || e.cancelled {
		return
	}
	e.cancelled = true
	k.ncancel++
	if n := k.Pending(); n >= 64 && k.ncancel > n/2 {
		k.compact()
	}
}

// compact removes cancelled entries from the calendar and the heap and
// restores heap order.
func (k *Kernel) compact() {
	for w, m := range k.occupied {
		for ; m != 0; m &= m - 1 {
			// Empty the bucket and chain its live events again, in
			// order, so each goes last.
			b := w<<6 | bits.TrailingZeros64(m)
			e := k.buckets[b].next
			k.buckets[b].next = nil
			k.buckets[b] = nil
			k.occupied[w] &^= 1 << (b & 63)
			for e != nil {
				next := e.next
				k.nchained--
				if e.cancelled {
					k.recycle(e)
				} else {
					k.chain(e)
				}
				e = next
			}
		}
	}
	h := k.heap[:0]
	for _, e := range k.heap {
		if e.cancelled {
			k.recycle(e)
		} else {
			h = append(h, e)
		}
	}
	for i := len(h); i < len(k.heap); i++ {
		k.heap[i] = nil
	}
	k.heap = h
	k.ncancel = 0
	k.ncompact++
	if len(h) > 1 {
		for i := (len(h) - 2) / 4; i >= 0; i-- {
			k.siftDown(i)
		}
	}
}

// Pending returns the number of events in the queue, including cancelled
// ones that have been neither popped nor compacted away yet.
func (k *Kernel) Pending() int { return k.nchained + len(k.heap) }

// Stop makes Run return after the current event completes.
func (k *Kernel) Stop() { k.stopped = true }

// push queues e: on the calendar if it is due less than nbuckets buckets
// past the clock's, else on the heap. An at that wrapped below the clock
// mostly fails the test; wherever it goes it is the queue's least, and
// pop panics on it as on any event in the past.
func (k *Kernel) push(e *event) {
	if uint64(e.at>>bucketBits)-uint64(k.now>>bucketBits) < nbuckets {
		k.chain(e)
	} else {
		k.heapPush(e)
	}
	if n := k.Pending(); n > k.hiwater {
		k.hiwater = n
	}
}

// chain inserts e into its bucket's ring. e has the greatest seq of all
// queued events, so it goes after every event due at or before e.at:
// last, unless the bucket holds a later one.
func (k *Kernel) chain(e *event) {
	b := int(e.at>>bucketBits) & (nbuckets - 1)
	switch last := k.buckets[b]; {
	case last == nil:
		e.next = e
		k.buckets[b] = e
		k.occupied[b>>6] |= 1 << (b & 63)
	case e.at >= last.at:
		e.next = last.next
		last.next = e
		k.buckets[b] = e
	default:
		p := last
		for p.next.at <= e.at {
			p = p.next
		}
		e.next = p.next
		p.next = e
	}
	k.nchained++
}

// firstBucket returns the first occupied bucket at or after the clock's,
// whose first event is the calendar's least by (at, seq). The calendar
// must not be empty.
func (k *Kernel) firstBucket() int {
	s := int(k.now>>bucketBits) & (nbuckets - 1)
	w := s >> 6
	m := k.occupied[w] &^ (1<<(s&63) - 1)
	for m == 0 {
		w = (w + 1) & (len(k.occupied) - 1)
		m = k.occupied[w]
	}
	return w<<6 | bits.TrailingZeros64(m)
}

// unchainFirst removes the first event of bucket b's ring.
func (k *Kernel) unchainFirst(b int) {
	last := k.buckets[b]
	if first := last.next; first == last {
		k.buckets[b] = nil
		k.occupied[b>>6] &^= 1 << (b & 63)
	} else {
		last.next = first.next
	}
	k.nchained--
}

// heapPush inserts e into the 4-ary heap (sift-up).
func (k *Kernel) heapPush(e *event) {
	k.heap = append(k.heap, e)
	h := k.heap
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) >> 2
		ep := h[p]
		if ep.at < e.at || (ep.at == e.at && ep.seq < e.seq) {
			break
		}
		h[i] = ep
		i = p
	}
	h[i] = e
}

// siftDown restores heap order below index i.
func (k *Kernel) siftDown(i int) {
	h := k.heap
	n := len(h)
	e := h[i]
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		m := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if h[j].at < h[m].at || (h[j].at == h[m].at && h[j].seq < h[m].seq) {
				m = j
			}
		}
		em := h[m]
		if e.at < em.at || (e.at == em.at && e.seq < em.seq) {
			break
		}
		h[i] = em
		i = m
	}
	h[i] = e
}

// popMin removes and returns the heap minimum.
func (k *Kernel) popMin() *event {
	h := k.heap
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = nil
	k.heap = h[:n]
	if n > 1 {
		k.siftDown(0)
	}
	return top
}

// pop returns the next runnable event with the clock advanced to it, or
// nil when the event loop must end: Stop was called, the queue is empty,
// or the next event lies beyond the Run limit (in which case the clock is
// advanced to the limit). The next event is the lesser by (at, seq) of the
// calendar's least and the heap's top; it is compared with the limit
// before either is removed. Ownership of the returned event passes to the
// caller, which must recycle it.
func (k *Kernel) pop() *event {
	for {
		if k.stopped {
			return nil
		}
		var e *event
		b := -1 // e's bucket, or -1 for the heap's top
		if k.nchained != 0 {
			b = k.firstBucket()
			e = k.buckets[b].next
		}
		if len(k.heap) != 0 {
			if t := k.heap[0]; e == nil || t.at < e.at || (t.at == e.at && t.seq < e.seq) {
				e, b = t, -1
			}
		}
		if e == nil {
			return nil
		}
		if k.until != 0 && e.at > k.until {
			k.now = k.until
			return nil
		}
		if b >= 0 {
			k.unchainFirst(b)
		} else {
			k.popMin()
		}
		if e.cancelled {
			k.ncancel--
			k.recycle(e)
			continue
		}
		if e.at < k.now {
			panic(fmt.Sprintf("sim: event at %d scheduled in the past (now %d)", e.at, k.now))
		}
		k.now = e.at
		return e
	}
}

// exec recycles e and runs its callback, on Run's goroutine or inside the
// driving proc's park. While it runs, inCallback makes a Wake legal as its
// one last action (see Proc.Wake); drive delivers that wake afterwards.
func (k *Kernel) exec(e *event) {
	call, obj, a, b := e.call, e.obj, e.a, e.b
	k.recycle(e)
	k.inCallback = true
	call(obj, a, b)
	k.inCallback = false
}

// handoff makes p, new or parked with its WakeVal set, the next driver of
// the event loop; self is the current driver, nil for Run's goroutine or a
// finished proc. A new proc's coroutine is created and linked on the live
// list here. A proc that is not on the driver stack is resumed here, and
// self waits, stacked, until p yields back. A proc on the stack below self
// cannot be resumed, only returned to: handoff records it in handoffTo and
// returns false at once, and every level above it yields in turn. handoff
// returns true when control is back at self as that target, so self
// continues inline, and false when self must yield too: the target is
// further down, or the loop is over.
func (k *Kernel) handoff(self, p *Proc) bool {
	p.checkWakeable()
	if p.state == ProcNew {
		p.next, p.stop = iter.Pull(p.run)
		k.link(p)
	}
	p.state = ProcRunning
	if p.stacked {
		k.handoffTo = p
		return false
	}
	if self != nil {
		self.stacked = true
	}
	k.nresumes++
	p.next()
	if self == nil {
		return false
	}
	self.stacked = false
	if k.handoffTo != self {
		return false
	}
	k.handoffTo = nil
	return true
}

// drive is the event loop. Run executes it on its own goroutine, and a
// driving proc inside its park (self) or after its body returned (nil). It
// pops and executes events inline until control must leave the caller: a
// typed wake-up pops, or a callback ends with a Wake. It returns true when
// self is to continue inline: the wake is its own (no switch at all), or
// control came back down the driver stack to it (see handoff). It returns
// false when self must yield back to the level below, or, on Run's
// goroutine, when the loop is over.
func (k *Kernel) drive(self *Proc) bool {
	for {
		e := k.pop()
		if e == nil {
			return false
		}
		p := e.proc
		if p == nil {
			k.exec(e)
			if p = k.deferred; p == nil {
				continue
			}
			k.deferred = nil
		} else {
			p.WakeVal = 0
			k.recycle(e)
		}
		if p == self {
			return true
		}
		return k.handoff(self, p)
	}
}

// Run executes events in timestamp order until the queue drains, the clock
// passes until (0 means no limit), or Stop is called. It returns the
// virtual time at exit. Events run inline on the calling goroutine until a
// proc wake-up hands the loop to that proc, which keeps driving it inside
// its own park (see drive). iter.Pull coroutines are asymmetric — a proc
// can only suspend back to whoever resumed it — so the driving procs form
// a stack above Run: a driver resumes the next driver itself and waits,
// and a handoff to a proc already on the stack unwinds to it, one yield
// per level (see handoff). When the loop is over every level has yielded
// and Run's drive returns; no proc is left on the stack.
//
// Run(0) that ends with an empty queue, not by Stop, ends the simulation:
// nothing can wake a proc that is still parked, so it is released (see
// release). Run with a limit and a stopped Run leave parked procs parked.
// A limit before the clock fires nothing and leaves the clock where it is:
// the clock never goes back.
func (k *Kernel) Run(until Cycles) Cycles {
	if until != 0 && until < k.now {
		k.flushStats()
		return k.now
	}
	k.stopped = false
	k.until = until
	k.drive(nil)
	k.until = 0
	if until != 0 && k.now < until && k.Pending() == 0 {
		k.now = until
	}
	if until == 0 && !k.stopped {
		k.release()
	}
	k.flushStats()
	return k.now
}

// Drain runs until the event queue is empty (no time limit), then
// releases every proc still parked: each becomes ProcDone and its
// goroutine exits. Simulation state read after Drain is what the last
// event left.
func (k *Kernel) Drain() Cycles { return k.Run(0) }

// errReleased is the panic value a released proc unwinds with. Proc.run
// recovers it and nothing else.
var errReleased = errors.New("sim: proc released by Drain")

// checkLive panics with errReleased while Drain releases parked procs, so
// a released body's deferred code cannot park, wake or schedule.
func (k *Kernel) checkLive() {
	if k.releasing {
		panic(errReleased)
	}
}

// link adds a started proc to the live list.
func (k *Kernel) link(p *Proc) {
	p.nextLive = k.live
	if k.live != nil {
		k.live.prevLive = p
	}
	k.live = p
}

// unlink removes p from the live list.
func (k *Kernel) unlink(p *Proc) {
	if p.prevLive != nil {
		p.prevLive.nextLive = p.nextLive
	} else {
		k.live = p.nextLive
	}
	if p.nextLive != nil {
		p.nextLive.prevLive = p.prevLive
	}
	p.prevLive, p.nextLive = nil, nil
}

// release ends every proc still on the live list, all of them parked once
// the loop is over. Stopping a coroutine makes its pending yield return
// false, so park panics with errReleased, the body unwinds through its
// deferred calls, and Proc.run recovers the sentinel; the goroutine then
// exits. Any other panic, or a Goexit, surfaces from Run.
func (k *Kernel) release() {
	k.releasing = true
	for p := k.live; p != nil; p = k.live {
		k.unlink(p)
		p.state = ProcDone
		p.stop()
	}
	k.releasing = false
}
