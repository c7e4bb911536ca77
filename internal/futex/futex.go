// Package futex simulates the Linux futex(2) subsystem the paper's MUTEX
// and MUTEXEE locks are built on.
//
// The kernel keeps a hash table of buckets, each guarded by a kernel
// spinlock and holding a wait queue. A FUTEX_WAIT enqueues the caller
// behind the bucket lock and deschedules it; a FUTEX_WAKE dequeues up to n
// waiters and makes them runnable. The model charges the latencies the
// paper measures in §4.3:
//
//   - a sleep call costs ≈2100 cycles (syscall, hashing, bucket lock,
//     enqueue, deschedule);
//   - a wake call costs ≈2700 cycles, plus waiting behind the bucket lock
//     when it races with a concurrent sleep on the same futex;
//   - the woken thread needs ≥4000 more cycles (idle-state exit +
//     scheduling) before it runs, giving the ≥7000-cycle turnaround;
//   - threads that slept past the deep-idle threshold pay an exploded
//     turnaround (Figure 6's right-hand side) — that part is charged by
//     the sched package's C-state model.
//
// The bucket kernel lock is modelled as a FIFO resource: callers spin in
// kernel space (SpinGlobal power) until the previous critical section
// completes. This serialization is what the paper blames for SQLite
// spending >40% of CPU time in the kernel's raw spin lock under MUTEX.
// The model gives each word a bucket of its own: calls on one word
// serialize behind its bucket lock, calls on different words never wait
// for each other. Linux hashes ≈256 buckets per core, so two words of a
// run share one only by a hash collision, which the model leaves out.
package futex

import (
	"lockin/internal/power"
	"lockin/internal/sched"
	"lockin/internal/sim"
)

// Config holds the futex cost constants, in cycles.
type Config struct {
	SyscallEntry sim.Cycles // user→kernel crossing (both directions folded in)
	BucketHold   sim.Cycles // bucket critical section (hashing, queue ops)
	Deschedule   sim.Cycles // tail of the sleep path after enqueueing
	WakeFixup    sim.Cycles // tail of the wake path (IPI, bookkeeping)
}

// DefaultConfig returns the Xeon calibration: sleep ≈2100 cycles,
// wake call ≈2700 cycles.
func DefaultConfig() Config {
	return Config{
		SyscallEntry: 700,
		BucketHold:   1000,
		Deschedule:   800,
		WakeFixup:    700,
	}
}

// WaitResult describes how a FUTEX_WAIT returned.
type WaitResult int

const (
	// Woken: a FUTEX_WAKE selected this waiter.
	Woken WaitResult = iota
	// ValMismatch: the futex word no longer held the expected value
	// (EAGAIN); the caller must retry its user-space protocol.
	ValMismatch
	// TimedOut: the timeout expired before a wake arrived.
	TimedOut
)

func (r WaitResult) String() string {
	switch r {
	case Woken:
		return "woken"
	case ValMismatch:
		return "val-mismatch"
	case TimedOut:
		return "timed-out"
	}
	return "unknown"
}

// Stats counts futex activity.
type Stats struct {
	Waits        uint64
	WaitMisses   uint64 // EAGAIN returns
	Wakes        uint64 // wake calls
	WokenThreads uint64
	Timeouts     uint64
	BucketWait   sim.Cycles // cycles spent spinning on bucket kernel locks
}

// Word is a futex: a 32-bit-style user-space word identified by address.
// The Load function reads the current user-space value; it is supplied by
// the lock implementation so the futex layer never duplicates state.
type Word struct {
	table *Table
	// Load returns the current value of the user-space word.
	Load    func() uint64
	freeAt  sim.Cycles // when the word's bucket lock frees: its FIFO horizon
	waiters []*waiter
}

// waiter is one futex call in flight, FUTEX_WAIT or FUTEX_WAKE, and the
// wait-queue node a FUTEX_WAIT enqueues. The call takes it from the
// table's pool when it starts and returns it when it returns, so a call
// allocates nothing in steady state. Its kernel-side steps run as
// callbacks while the calling thread stays parked (see Next).
type waiter struct {
	t        *sched.Thread
	w        *Word
	timedOut bool
	timer    sim.Event
	index    int

	phase   phase
	wake    bool           // FUTEX_WAKE, else FUTEX_WAIT
	val     uint64         // FUTEX_WAIT: the value the word must hold
	timeout sim.Cycles     // FUTEX_WAIT: 0 = none
	n       int            // FUTEX_WAKE: the most waiters to wake
	ret     uint64         // the call's result: a WaitResult, or the count woken
	prev    power.Activity // the activity a bucket-lock wait interrupted
}

// phase names the step of a futex call that runs next: each follows the
// cost before it, or the dispatch after a sleep.
type phase int

const (
	entered    phase = iota // after the entry crossing: take the bucket lock
	spun                    // after the bucket-lock wait: hold the lock
	held                    // after the hold: check the value, or wake
	queued                  // after the descheduling tail: deschedule
	dispatched              // dispatched again: cross back to user space
	fixedUp                 // after the wake fix-up: cross back
	returned                // after the return crossing: the call returns
)

// Table is the kernel's futex state: the words' calls in flight and
// their counters.
type Table struct {
	k     *sim.Kernel
	s     *sched.Scheduler
	cfg   Config
	stats Stats

	// pool recycles waiter nodes so the Wait/Wake hot path does not
	// allocate. A waiter is returned to the pool only after its timer is
	// dead (fired or cancelled), so a pooled node can never receive a
	// stale timeout. It holds at most the peak number of calls in flight.
	pool []*waiter

	// permits counts the calls whose Deschedule found a wake permit (an
	// Unblock raced the descheduling tail) and dispatches those whose
	// return crossing a dispatch started. Only tests read them.
	permits, dispatches uint64
}

// waiterBlock is how many nodes an empty pool grows by at once.
const waiterBlock = 8

// getWaiter takes a node from the pool. An empty pool grows by a block
// of waiterBlock nodes, so a table's peak of calls in flight costs one
// allocation per block, not one per node.
func (tb *Table) getWaiter() *waiter {
	if len(tb.pool) == 0 {
		block := make([]waiter, waiterBlock)
		for i := range block {
			tb.pool = append(tb.pool, &block[i])
		}
	}
	n := len(tb.pool) - 1
	wt := tb.pool[n]
	tb.pool[n] = nil
	tb.pool = tb.pool[:n]
	return wt
}

func (tb *Table) putWaiter(wt *waiter) {
	*wt = waiter{}
	tb.pool = append(tb.pool, wt)
}

// NewTable creates a futex table bound to a scheduler.
func NewTable(k *sim.Kernel, s *sched.Scheduler, cfg Config) *Table {
	return &Table{k: k, s: s, cfg: cfg}
}

// Stats returns a copy of the activity counters.
func (tb *Table) Stats() Stats { return tb.stats }

// ResetStats zeroes the counters.
func (tb *Table) ResetStats() { tb.stats = Stats{} }

// NewWord allocates a futex word with its own bucket. Load reads the
// user-space value the kernel re-checks under the bucket lock.
func (tb *Table) NewWord(load func() uint64) *Word {
	return &Word{table: tb, Load: load}
}

// Waiters returns the current wait-queue length.
func (w *Word) Waiters() int { return len(w.waiters) }

// Wait implements FUTEX_WAIT: if the word still equals val, the calling
// thread sleeps until woken or until timeout (0 = none) expires. The call
// itself costs ≈2100 cycles before descheduling.
func (tb *Table) Wait(t *sched.Thread, w *Word, val uint64, timeout sim.Cycles) WaitResult {
	tb.stats.Waits++
	c := tb.startCall(t, w)
	c.val, c.timeout = val, timeout
	c.carry(tb.cfg.SyscallEntry, entered)
	return WaitResult(t.Await())
}

// Wake implements FUTEX_WAKE: it makes up to n waiters runnable and
// returns how many were woken. The call costs ≈2700 cycles on the waker;
// each woken thread additionally pays its idle-exit and scheduling
// latency before running (charged by sched).
func (tb *Table) Wake(t *sched.Thread, w *Word, n int) int {
	tb.stats.Wakes++
	c := tb.startCall(t, w)
	c.wake, c.n = true, n
	c.carry(tb.cfg.SyscallEntry, entered)
	return int(t.Await())
}

// startCall takes a pooled node for a call of t on w.
func (tb *Table) startCall(t *sched.Thread, w *Word) *waiter {
	c := tb.getWaiter()
	c.t, c.w = t, w
	return c
}

// carry runs cost on the calling thread, then the step next.
func (c *waiter) carry(cost sim.Cycles, next phase) {
	c.phase = next
	c.t.Carry(cost, c)
}

// Next runs the call's next step where the thread would run it if it
// made the whole call itself (sched.Call; reference_test.go keeps that
// version), so the thread stays parked until the call returns. The
// steps: the entry crossing, the bucket-lock wait at SpinGlobal power
// and the hold, the value check (EAGAIN costs the return crossing) or
// the wake loop, the enqueue with its timeout timer and the descheduling
// tail, the wake fix-up, and the return crossing, which a woken waiter's
// dispatch starts.
func (c *waiter) Next() {
	tb, t := c.w.table, c.t
	switch c.phase {
	case entered:
		tb.lockBucket(c)
	case spun:
		t.SetActivity(c.prev)
		c.carry(tb.cfg.BucketHold, held)
	case held:
		if c.wake {
			tb.wakeWaiters(c)
			c.carry(tb.cfg.WakeFixup, fixedUp)
			return
		}
		if c.w.Load() != c.val {
			// Value changed while entering the kernel: EAGAIN.
			tb.stats.WaitMisses++
			c.ret = uint64(ValMismatch)
			c.carry(tb.cfg.SyscallEntry, returned)
			return
		}
		w := c.w
		c.index = len(w.waiters)
		w.waiters = append(w.waiters, c)
		if c.timeout > 0 {
			c.timer = tb.k.ScheduleCall(c.timeout, waiterTimeout, c, 0, 0)
		}
		c.carry(tb.cfg.Deschedule, queued)
	case queued:
		c.phase = dispatched
		if t.Deschedule(c) {
			return // off CPU until a wake or the timeout dispatches it
		}
		tb.permits++
		c.carry(tb.cfg.SyscallEntry, returned)
	case dispatched:
		tb.dispatches++
		c.carry(tb.cfg.SyscallEntry, returned)
	case fixedUp:
		c.carry(tb.cfg.SyscallEntry, returned)
	case returned:
		ret := c.ret
		if c.timedOut {
			ret = uint64(TimedOut)
		}
		tb.putWaiter(c)
		t.Return(ret)
	}
}

// lockBucket charges the kernel-spinlock wait (if the word's bucket is
// held) plus the hold time. The thread spins at kernel level while
// waiting (global spinning power).
func (tb *Table) lockBucket(c *waiter) {
	w := c.w
	now := tb.k.Now()
	wait := sim.Cycles(0)
	if w.freeAt > now {
		wait = w.freeAt - now
	}
	tb.stats.BucketWait += wait
	w.freeAt = now + wait + tb.cfg.BucketHold
	if wait > 0 {
		c.prev = c.t.Activity()
		c.t.SetActivity(power.SpinGlobal)
		c.carry(wait, spun)
		return
	}
	c.carry(tb.cfg.BucketHold, held)
}

// wakeWaiters dequeues up to c.n waiters of the word in FIFO order and
// makes them runnable behind the wake fix-up, counting them in c.ret.
func (tb *Table) wakeWaiters(c *waiter) {
	w := c.w
	for c.ret < uint64(c.n) && len(w.waiters) > 0 {
		wt := w.waiters[0]
		w.remove(wt)
		if wt.timer != (sim.Event{}) && !wt.timer.Cancelled() {
			totalTimeoutWakeRaces.Add(1)
		}
		tb.k.Cancel(wt.timer)
		wt.timer = sim.Event{}
		tb.s.Unblock(wt.t, tb.cfg.WakeFixup)
		c.ret++
		tb.stats.WokenThreads++
	}
}

// waiterTimeout is the ScheduleCall callback of a Wait timeout timer.
func waiterTimeout(obj any, _, _ uint64) {
	wt := obj.(*waiter)
	if wt.index < 0 {
		return // a wake won the race
	}
	tb := wt.w.table
	if wt.t.State() != sched.Blocked {
		// The waiter is still on its way to Deschedule (descheduling
		// path); retry shortly rather than waking a running thread.
		wt.timer = tb.k.ScheduleCall(100, waiterTimeout, wt, 0, 0)
		return
	}
	wt.timedOut = true
	wt.w.remove(wt)
	tb.stats.Timeouts++
	totalTimeouts.Add(1)
	tb.s.Unblock(wt.t, 0)
}

// remove unlinks a waiter from the queue (swap-free, order-preserving).
func (w *Word) remove(wt *waiter) {
	if wt.index < 0 {
		return
	}
	copy(w.waiters[wt.index:], w.waiters[wt.index+1:])
	w.waiters = w.waiters[:len(w.waiters)-1]
	for i := wt.index; i < len(w.waiters); i++ {
		w.waiters[i].index = i
	}
	wt.index = -1
}

// KernelWakeAll is a helper for non-thread contexts (e.g. experiment
// teardown from kernel events): it wakes every waiter with no cost model.
func (tb *Table) KernelWakeAll(w *Word) int {
	n := 0
	for len(w.waiters) > 0 {
		wt := w.waiters[0]
		w.remove(wt)
		tb.k.Cancel(wt.timer)
		wt.timer = sim.Event{}
		tb.s.Unblock(wt.t, 0)
		n++
	}
	return n
}
