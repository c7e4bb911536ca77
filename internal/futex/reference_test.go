package futex

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"lockin/internal/power"
	"lockin/internal/sched"
	"lockin/internal/sim"
)

// refAcquireBucket, refWait and refWake are acquireBucket, Wait and Wake
// as they were before a call's kernel-side steps ran as callbacks: the
// calling thread runs every step itself, so each Run chunk and the Block
// resume it. They are kept verbatim as the reference the fused calls
// must match.

// refAcquireBucket charges the kernel-spinlock wait (if w's bucket is
// held) plus the hold time, advancing the thread's clock. The thread
// spins at kernel level while waiting (global spinning power).
func (tb *Table) refAcquireBucket(t *sched.Thread, w *Word) {
	now := t.Proc().Now()
	wait := sim.Cycles(0)
	if w.freeAt > now {
		wait = w.freeAt - now
	}
	tb.stats.BucketWait += wait
	w.freeAt = now + wait + tb.cfg.BucketHold
	if wait > 0 {
		prev := t.Activity()
		t.SetActivity(power.SpinGlobal)
		t.Run(wait)
		t.SetActivity(prev)
	}
	t.Run(tb.cfg.BucketHold)
}

// refWait implements FUTEX_WAIT: if the word still equals val, the calling
// thread sleeps until woken or until timeout (0 = none) expires. The call
// itself costs ≈2100 cycles before descheduling.
func (tb *Table) refWait(t *sched.Thread, w *Word, val uint64, timeout sim.Cycles) WaitResult {
	tb.stats.Waits++
	t.Run(tb.cfg.SyscallEntry)
	tb.refAcquireBucket(t, w)
	if w.Load() != val {
		// Value changed while entering the kernel: EAGAIN.
		tb.stats.WaitMisses++
		t.Run(tb.cfg.SyscallEntry) // kernel→user return
		return ValMismatch
	}
	wt := tb.getWaiter()
	wt.t, wt.w = t, w
	wt.timedOut = false
	wt.index = len(w.waiters)
	w.waiters = append(w.waiters, wt)
	if timeout > 0 {
		wt.timer = tb.k.ScheduleCall(timeout, waiterTimeout, wt, 0, 0)
	}
	t.Run(tb.cfg.Deschedule)
	t.Block()
	// Back on CPU: charge the kernel→user return path.
	t.Run(tb.cfg.SyscallEntry)
	timedOut := wt.timedOut
	tb.putWaiter(wt)
	if timedOut {
		return TimedOut
	}
	return Woken
}

// refWake implements FUTEX_WAKE: it makes up to n waiters runnable and
// returns how many were woken. The call costs ≈2700 cycles on the waker;
// each woken thread additionally pays its idle-exit and scheduling
// latency before running (charged by sched).
func (tb *Table) refWake(t *sched.Thread, w *Word, n int) int {
	tb.stats.Wakes++
	t.Run(tb.cfg.SyscallEntry)
	tb.refAcquireBucket(t, w)
	woken := 0
	for woken < n && len(w.waiters) > 0 {
		wt := w.waiters[0]
		w.remove(wt)
		if wt.timer != (sim.Event{}) && !wt.timer.Cancelled() {
			totalTimeoutWakeRaces.Add(1)
		}
		tb.k.Cancel(wt.timer)
		wt.timer = sim.Event{}
		tb.s.Unblock(wt.t, tb.cfg.WakeFixup)
		woken++
		tb.stats.WokenThreads++
	}
	t.Run(tb.cfg.WakeFixup)
	t.Run(tb.cfg.SyscallEntry)
	return woken
}

// calls is one implementation of the two futex calls.
type calls struct {
	wait func(tb *Table, t *sched.Thread, w *Word, val uint64, timeout sim.Cycles) WaitResult
	wake func(tb *Table, t *sched.Thread, w *Word, n int) int
}

var (
	fusedCalls = calls{(*Table).Wait, (*Table).Wake}
	refCalls   = calls{(*Table).refWait, (*Table).refWake}
)

// counted wraps c so that each call adds the preemptions its thread
// took during the call to *preempted.
func counted(c calls, preempted *uint64) calls {
	return calls{
		wait: func(tb *Table, t *sched.Thread, w *Word, val uint64, timeout sim.Cycles) WaitResult {
			before := t.Preemptions
			r := c.wait(tb, t, w, val, timeout)
			*preempted += t.Preemptions - before
			return r
		},
		wake: func(tb *Table, t *sched.Thread, w *Word, n int) int {
			before := t.Preemptions
			r := c.wake(tb, t, w, n)
			*preempted += t.Preemptions - before
			return r
		},
	}
}

// Costs of the protocols' user-space steps, in cycles.
const (
	atomicCost = 100
	csCost     = 2000
	outCost    = 500
)

// spawnMutex spawns n threads that take a MUTEX-style lock until the
// clock passes until. Its word is 0 (free), 1 (locked) or 2 (locked,
// maybe with waiters): a thread whose CAS from 0 to 1 fails swaps in 2
// and waits on 2 until a swap reads 0, and a release that swaps out a 2
// wakes one waiter. Thread i takes lock i%words and waits with timeout
// timeouts[i%len(timeouts)] (0 = none); a wait that times out retries as
// a woken one does. It returns the threads and the count of
// acquisitions they make.
func spawnMutex(h *harness, c calls, n, words int, timeouts []sim.Cycles, until sim.Cycles) ([]*sched.Thread, *uint64) {
	vals := make([]uint64, words)
	ws := make([]*Word, words)
	for i := range ws {
		v := &vals[i]
		ws[i] = h.tb.NewWord(func() uint64 { return *v })
	}
	var ops uint64
	var threads []*sched.Thread
	for i := 0; i < n; i++ {
		v, w, timeout := &vals[i%words], ws[i%words], timeouts[i%len(timeouts)]
		threads = append(threads, h.s.Spawn("mutex", func(t *sched.Thread) {
			// Each atomic takes effect at once and then costs atomicCost.
			swap := func(x uint64) uint64 {
				old := *v
				*v = x
				t.Run(atomicCost)
				return old
			}
			cas01 := func() bool {
				ok := *v == 0
				if ok {
					*v = 1
				}
				t.Run(atomicCost)
				return ok
			}
			for t.Proc().Now() < until {
				if !cas01() {
					for swap(2) != 0 {
						c.wait(h.tb, t, w, 2, timeout)
					}
				}
				ops++
				t.Run(csCost)
				if swap(0) == 2 {
					c.wake(h.tb, t, w, 1)
				}
				t.Run(outCost)
			}
		}))
	}
	return threads, &ops
}

// spawnBroadcast spawns a broadcaster and n-1 waiters on one sequence
// word, as core.Cond uses it. A waiter reads the sequence, works outside
// for a while and waits while the word still holds what it read. Every
// csCost cycles the broadcaster bumps the sequence and wakes every
// waiter (n = 1<<30, Cond's Broadcast); past until it sets done, bumps
// and wakes once more, and the waiters stop. It returns the threads and
// the count of waits that ended woken.
func spawnBroadcast(h *harness, c calls, n int, until sim.Cycles) ([]*sched.Thread, *uint64) {
	var seq, ops uint64
	done := false
	w := h.tb.NewWord(func() uint64 { return seq })
	threads := []*sched.Thread{h.s.Spawn("broadcaster", func(t *sched.Thread) {
		for !done {
			t.Run(csCost)
			done = t.Proc().Now() >= until
			seq++
			c.wake(h.tb, t, w, 1<<30)
		}
	})}
	for i := 1; i < n; i++ {
		threads = append(threads, h.s.Spawn("waiter", func(t *sched.Thread) {
			for !done {
				v := seq
				t.Run(outCost)
				if c.wait(h.tb, t, w, v, 0) == Woken {
					ops++
				}
			}
		}))
	}
	return threads, &ops
}

// refProtocol is one futex protocol of the reference table.
type refProtocol struct {
	name  string
	spawn func(h *harness, c calls, n int, until sim.Cycles) ([]*sched.Thread, *uint64)
}

func refProtocols() []refProtocol {
	mutex := func(words int, timeout sim.Cycles) func(*harness, calls, int, sim.Cycles) ([]*sched.Thread, *uint64) {
		return func(h *harness, c calls, n int, until sim.Cycles) ([]*sched.Thread, *uint64) {
			return spawnMutex(h, c, n, words, []sim.Cycles{timeout}, until)
		}
	}
	return []refProtocol{
		{name: "mutex", spawn: mutex(1, 0)},
		// 300 cycles end inside the 800-cycle descheduling tail, so the
		// timer finds the waiter still on CPU and retries until it sleeps.
		{name: "timeout-in-tail", spawn: mutex(1, 300)},
		// ≈7000 cycles is the futex turnaround, so timeouts and wakes race.
		{name: "timeout-racing-wake", spawn: mutex(1, 7_000)},
		{name: "broadcast", spawn: spawnBroadcast},
		// Two locks, each word with its own bucket lock.
		{name: "two-words", spawn: mutex(2, 0)},
	}
}

// refThreadStats is what the scheduler counts per thread.
type refThreadStats struct {
	Preemptions, Dispatches uint64
	RunCycles               sim.Cycles
}

// refRunStats is everything a run is compared on. Floating-point
// readings are kept as their bits.
type refRunStats struct {
	Ops      uint64
	End      sim.Cycles
	Energy   [3]uint64 // Package, Cores, DRAM
	Threads  []refThreadStats
	Futex    Stats
	Recycles uint64 // change in sim.GlobalStats().EventRecycles
	Timeouts uint64 // change in GlobalTimeouts()
	Races    uint64 // change in GlobalTimeoutWakeRaces()
	NextDraw int64  // the kernel RNG's next draw after Drain
}

// runProtocol runs p with n threads through c on a Xeon at the given
// timeslice (0 = the default) until the clock passes until, then drains.
// It reports the run's stats, its table, whose permits and dispatches
// the caller sums, and how many preemptions its threads took inside a
// futex call.
func runProtocol(p refProtocol, c calls, n int, timeslice, until sim.Cycles) (refRunStats, *Table, uint64) {
	scfg := sched.DefaultConfig()
	if timeslice != 0 {
		scfg.Timeslice = timeslice
	}
	recycles, timeouts, races := sim.GlobalStats().EventRecycles, GlobalTimeouts(), GlobalTimeoutWakeRaces()
	h := newHarnessWith(42, scfg, DefaultConfig())
	var inCall uint64
	threads, ops := p.spawn(h, counted(c, &inCall), n, until)
	s := refRunStats{End: h.k.Drain()}
	s.Ops = *ops
	e := h.m.Energy()
	s.Energy = [3]uint64{math.Float64bits(e.Package), math.Float64bits(e.Cores), math.Float64bits(e.DRAM)}
	for _, t := range threads {
		s.Threads = append(s.Threads, refThreadStats{t.Preemptions, t.Dispatches, t.RunCycles})
	}
	s.Futex = h.tb.Stats()
	s.Recycles = sim.GlobalStats().EventRecycles - recycles
	s.Timeouts = GlobalTimeouts() - timeouts
	s.Races = GlobalTimeoutWakeRaces() - races
	s.NextDraw = h.k.Rand().Int63()
	return s, h.tb, inCall
}

// TestCallsMatchReference runs futex protocols through Wait and Wake,
// whose kernel-side steps run as callbacks, and through the thread-run
// calls they replaced, and requires the two simulations to agree bit for
// bit: end time, energy, each thread's scheduling counters, the table's
// stats, the events the kernel recycled, the process-wide timeout and
// wake-race counts and the kernel RNG's next draw. The protocols are a
// MUTEX-style lock, the same with timeouts that fire in the descheduling
// tail or race the wakes, a Cond-style broadcast and two such locks; the
// rows put 1 to 80 threads on the 40-context Xeon at the default
// timeslice and at 300 cycles, which splits the calls' costs into
// chunks and preempts inside them. The table must reach a
// Requeue inside a call (a cost whose slice is spent while a peer waits:
// the fused call's thread is parked in Await from start to return, so
// each preemption it takes during the call is one), a wake that raced
// the descheduling tail, and the dispatch continuation.
//
// Under the race detector, which keeps state for every goroutine ever
// started (each simulated thread is one), the rows shrink to 2 and 41
// threads; the full table runs without -race.
func TestCallsMatchReference(t *testing.T) {
	threadCounts := []int{1, 2, 39, 40, 41, 60, 80}
	if raceDetector {
		threadCounts = []int{2, 41}
	}
	timeslices := []struct {
		name      string
		timeslice sim.Cycles
		duration  sim.Cycles // of an oversubscribed row; others run 300K
	}{
		{"default-slice", 0, 3_100_000}, // past one slice, so oversubscribed rows preempt
		{"slice-300", 300, 150_000},     // shorter than most of a call's steps
	}
	var requeues, permits, dispatches uint64
	for _, sl := range timeslices {
		for _, n := range threadCounts {
			for _, p := range refProtocols() {
				t.Run(fmt.Sprintf("%s/%d/%s", sl.name, n, p.name), func(t *testing.T) {
					until := min(sl.duration, 300_000)
					if n > 40 {
						until = sl.duration
					}
					want, _, _ := runProtocol(p, refCalls, n, sl.timeslice, until)
					got, tb, inCall := runProtocol(p, fusedCalls, n, sl.timeslice, until)
					if got.Ops == 0 && n > 1 {
						t.Fatal("the protocol made no progress")
					}
					if !reflect.DeepEqual(got, want) {
						t.Errorf("fused calls and the reference differ:\n got %+v\nwant %+v", got, want)
					}
					requeues += inCall
					permits += tb.permits
					dispatches += tb.dispatches
				})
			}
		}
	}
	t.Logf("requeues in a call %d, permits %d, dispatch continuations %d", requeues, permits, dispatches)
	if requeues == 0 {
		t.Error("no call was preempted")
	}
	if permits == 0 {
		t.Error("no wake raced a descheduling tail")
	}
	if dispatches == 0 {
		t.Error("no dispatch continued a call")
	}
}
