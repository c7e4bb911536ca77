package sim

import (
	"fmt"
	"math/rand"
	"testing"
)

// refKernel is the kernel's event queue as it was before the calendar: one
// pooled 4-ary min-heap on (at, seq) for every event, with lazy
// cancellation and compaction. It keeps only the queue (no procs) and is
// the reference the calendar queue must match event for event. Two rules
// were fixed after it was retired, and it keeps them too: a compaction that
// leaves no live event does not sift an empty heap, and a Run whose limit
// is before the clock fires nothing and leaves the clock where it is.
type refKernel struct {
	now     Cycles
	heap    []*refEvent
	free    []*refEvent
	ncancel int
	seq     uint64
	stopped bool
	until   Cycles

	nrecycled uint64
	ncompact  uint64
	hiwater   int
}

type refEvent struct {
	at  Cycles
	seq uint64

	call func(obj any, a, b uint64)
	obj  any
	a, b uint64

	gen       uint32
	cancelled bool
}

type refHandle struct {
	e   *refEvent
	gen uint32
}

func (k *refKernel) alloc(d Cycles) *refEvent {
	var e *refEvent
	if n := len(k.free); n > 0 {
		e = k.free[n-1]
		k.free[n-1] = nil
		k.free = k.free[:n-1]
	} else {
		e = &refEvent{}
	}
	e.at = k.now + d
	e.seq = k.seq
	k.seq++
	return e
}

func (k *refKernel) recycle(e *refEvent) {
	e.gen++
	e.call = nil
	e.obj = nil
	e.a, e.b = 0, 0
	e.cancelled = false
	k.free = append(k.free, e)
	k.nrecycled++
}

func (k *refKernel) ScheduleCall(d Cycles, call func(obj any, a, b uint64), obj any, a, b uint64) refHandle {
	e := k.alloc(d)
	e.call = call
	e.obj = obj
	e.a, e.b = a, b
	k.push(e)
	return refHandle{e: e, gen: e.gen}
}

func (k *refKernel) Cancel(ev refHandle) {
	e := ev.e
	if e == nil || e.gen != ev.gen || e.cancelled {
		return
	}
	e.cancelled = true
	k.ncancel++
	if n := len(k.heap); n >= 64 && k.ncancel > n/2 {
		k.compact()
	}
}

func (k *refKernel) compact() {
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

func (k *refKernel) Pending() int { return len(k.heap) }

func (k *refKernel) push(e *refEvent) {
	k.heap = append(k.heap, e)
	if len(k.heap) > k.hiwater {
		k.hiwater = len(k.heap)
	}
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

func (k *refKernel) siftDown(i int) {
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

func (k *refKernel) popMin() *refEvent {
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

func (k *refKernel) pop() *refEvent {
	for {
		if k.stopped || len(k.heap) == 0 {
			return nil
		}
		top := k.heap[0]
		if k.until != 0 && top.at > k.until {
			k.now = k.until
			return nil
		}
		e := k.popMin()
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

func (k *refKernel) Run(until Cycles) Cycles {
	if until != 0 && until < k.now {
		return k.now
	}
	k.stopped = false
	k.until = until
	for e := k.pop(); e != nil; e = k.pop() {
		call, obj, a, b := e.call, e.obj, e.a, e.b
		k.recycle(e)
		call(obj, a, b)
	}
	k.until = 0
	if until != 0 && k.now < until && len(k.heap) == 0 {
		k.now = until
	}
	return k.now
}

// queueModel is what a queue script drives: the kernel or the reference.
// Events are named by the script's ids, handed out in schedule order.
type queueModel interface {
	schedule(d Cycles, id uint64)
	cancel(id uint64)
	run(until Cycles)
	stop()
	now() Cycles
	pending() int
	// counts returns the recycles and compactions so far, as GlobalStats
	// deltas for the kernel, and the high-water mark of Pending.
	counts() (recycles, compactions uint64, hiwater int)
}

type kernelModel struct {
	k    *Kernel
	ev   []Event
	fire func(id uint64)
	base Stats
}

func newKernelModel(fire func(uint64)) queueModel {
	return &kernelModel{k: NewKernel(1), fire: fire, base: GlobalStats()}
}

func kernelModelFire(obj any, id, _ uint64) { obj.(*kernelModel).fire(id) }

func (m *kernelModel) schedule(d Cycles, id uint64) {
	m.ev = append(m.ev, m.k.ScheduleCall(d, kernelModelFire, m, id, 0))
}
func (m *kernelModel) cancel(id uint64) { m.k.Cancel(m.ev[id]) }
func (m *kernelModel) run(until Cycles) { m.k.Run(until) }
func (m *kernelModel) stop()            { m.k.Stop() }
func (m *kernelModel) now() Cycles      { return m.k.Now() }
func (m *kernelModel) pending() int     { return m.k.Pending() }
func (m *kernelModel) counts() (uint64, uint64, int) {
	s := GlobalStats()
	return s.EventRecycles - m.base.EventRecycles, s.HeapCompactions - m.base.HeapCompactions, m.k.hiwater
}

type refModel struct {
	k    refKernel
	ev   []refHandle
	fire func(id uint64)
}

func newRefModel(fire func(uint64)) queueModel { return &refModel{fire: fire} }

func refModelFire(obj any, id, _ uint64) { obj.(*refModel).fire(id) }

func (m *refModel) schedule(d Cycles, id uint64) {
	m.ev = append(m.ev, m.k.ScheduleCall(d, refModelFire, m, id, 0))
}
func (m *refModel) cancel(id uint64) { m.k.Cancel(m.ev[id]) }
func (m *refModel) run(until Cycles) { m.k.Run(until) }
func (m *refModel) stop()            { m.k.stopped = true }
func (m *refModel) now() Cycles      { return m.k.now }
func (m *refModel) pending() int     { return m.k.Pending() }
func (m *refModel) counts() (uint64, uint64, int) {
	return m.k.nrecycled, m.k.ncompact, m.k.hiwater
}

// entry is one observation in a script's log: a fire (id, at), or the
// state after a Run (until, then now, pending and the counts).
type entry struct {
	kind                  byte // 'f' fire, 'r' Run, 'x' a fire the script did not expect
	id, at                uint64
	now, pending          uint64
	recycles, compactions uint64
	hiwater               uint64
}

func (e entry) String() string {
	switch e.kind {
	case 'f':
		return fmt.Sprintf("fire %d at %d", e.id, e.at)
	case 'x':
		return fmt.Sprintf("unexpected fire of %d at %d", e.id, e.at)
	}
	return fmt.Sprintf("Run(%d): now %d, pending %d, recycles %d, compactions %d, high water %d",
		e.at, e.now, e.pending, e.recycles, e.compactions, e.hiwater)
}

// queueScript drives one model through a seeded sequence of schedules,
// cancels, Stops and Run calls, and logs what it observes: each fire with
// its instant, and after each Run the clock, Pending and the counts. It
// keeps its own record of the events still due, so the limits it picks and
// the events it cancels depend only on what it observed, and two models
// that fire alike are driven alike.
type queueScript struct {
	rng     *rand.Rand
	q       queueModel
	pattern string
	log     []entry

	at     []Cycles // fire time of each id
	due    []bool   // scheduled, neither fired nor cancelled
	member []int    // herd member an id re-arms, -1 for none
	idle   [herdSize]int
}

// herd reports whether the pattern keeps a herd (see bench_test.go) of
// events that re-arm as they fire: "tas", and "deep-idle", where each
// fire also replaces its member's deep-idle timer. Such a queue never
// drains.
func (s *queueScript) herd() bool { return s.pattern == "tas" || s.pattern == "deep-idle" }

// delay picks a delay: zero, short, a herd gap, one of the window's
// edges (one bucket inside it, its last cycle, the first cycle past it),
// beyond the window, or a deep-idle timer.
func (s *queueScript) delay() Cycles {
	now := s.q.now()
	end := (now>>bucketBits + nbuckets) << bucketBits // first cycle past the window
	switch s.rng.Intn(9) {
	case 0:
		return 0
	case 1:
		return Cycles(s.rng.Intn(64))
	case 2:
		return Cycles(1+s.rng.Intn(herdSize)) * herdGap
	case 3:
		return end - bucketWidth - now + Cycles(s.rng.Intn(2))
	case 4:
		return end - 1 - now
	case 5:
		return end - now + Cycles(s.rng.Intn(2))
	case 6:
		return Cycles(s.rng.Intn(2 * calendarSpan))
	case 7:
		return calendarSpan + Cycles(s.rng.Intn(4*calendarSpan))
	default:
		return idleTimer + Cycles(s.rng.Intn(1000))
	}
}

func (s *queueScript) schedule(d Cycles, member int) int {
	id := len(s.at)
	s.at = append(s.at, s.q.now()+d)
	s.due = append(s.due, true)
	s.member = append(s.member, member)
	s.q.schedule(d, uint64(id))
	return id
}

func (s *queueScript) cancel(id int) {
	s.due[id] = false
	s.q.cancel(uint64(id)) // a no-op for a fired or cancelled id
}

// next returns the earliest fire time still due, and false if none is.
func (s *queueScript) next() (Cycles, bool) {
	var first Cycles
	ok := false
	for id, due := range s.due {
		if due && (!ok || s.at[id] < first) {
			first, ok = s.at[id], true
		}
	}
	return first, ok
}

func (s *queueScript) fire(id uint64) {
	now := s.q.now()
	if !s.due[id] || s.at[id] != now {
		s.log = append(s.log, entry{kind: 'x', id: id, at: uint64(now)})
		return
	}
	s.log = append(s.log, entry{kind: 'f', id: id, at: uint64(now)})
	s.due[id] = false
	if m := s.member[id]; m >= 0 {
		s.schedule(herdPeriod, m)
		if s.pattern == "deep-idle" {
			s.cancel(s.idle[m])
			s.idle[m] = s.schedule(idleTimer, -1)
		}
		return
	}
	// Callbacks schedule, cancel and stop the loop too.
	if s.rng.Intn(50) == 0 {
		s.q.stop()
	}
	switch s.rng.Intn(6) {
	case 0:
		s.schedule(s.delay(), -1)
	case 1:
		s.schedule(s.delay(), -1)
		s.schedule(s.delay(), -1)
	case 2:
		s.cancel(s.rng.Intn(len(s.at)))
	}
}

// run picks a limit: in the past, at the clock, before, at or just after
// the next event due, well past it, or none (Drain). A herd's Run is
// short, and never a Drain.
func (s *queueScript) run() {
	now := s.q.now()
	next, ok := s.next()
	span := 3 * calendarSpan
	if s.herd() {
		span = calendarSpan / 8
	}
	var until Cycles
	switch r := s.rng.Intn(8); {
	case r == 0 && now > 1:
		until = now - 1 - Cycles(s.rng.Intn(int(min(now-1, 1000))))
	case r == 1:
		until = now
	case r >= 2 && r <= 4 && ok && next+Cycles(r) >= 3:
		until = next + Cycles(r) - 3 // before, at, just after
	case r == 5 && !s.herd() && s.rng.Intn(4) == 0:
		until = 0
	default:
		until = now + Cycles(s.rng.Intn(span))
	}
	if until == 0 && s.herd() {
		until = now + 1
	}
	s.runTo(until)
}

func (s *queueScript) runTo(until Cycles) {
	s.q.run(until)
	rec, comp, hw := s.q.counts()
	s.log = append(s.log, entry{kind: 'r', at: uint64(until), now: uint64(s.q.now()),
		pending: uint64(s.q.pending()), recycles: rec, compactions: comp, hiwater: uint64(hw)})
}

// step makes one top-level move of the script's pattern.
func (s *queueScript) step() {
	switch r := s.rng.Intn(10); {
	case r < 3:
		s.run()
	case r < 5:
		n := 1 + s.rng.Intn(3)
		if s.pattern == "burst" {
			n = 1 + s.rng.Intn(50) // one instant
		}
		d := s.delay()
		for i := 0; i < n; i++ {
			s.schedule(d, -1)
			if s.pattern != "burst" {
				d = s.delay()
			}
		}
	case r < 7:
		s.cancel(s.rng.Intn(len(s.at)))
	case r < 8 && s.pattern == "cancel-storm":
		// Timers that wakes beat: cancelling most of what is due
		// compacts once cancelled events are more than half the queue.
		for i := 0; i < 80; i++ {
			s.schedule(s.delay(), -1)
		}
		for id, due := range s.due {
			if due && s.member[id] < 0 && s.rng.Intn(8) != 0 {
				s.cancel(id)
			}
		}
	case r < 8 && s.pattern == "far":
		// Two events past the window, a Run that brings them inside it
		// while they sit in the heap, and near events due at and just
		// after their instant.
		t := s.q.now() + calendarSpan + Cycles(s.rng.Intn(calendarSpan))
		s.schedule(t-s.q.now(), -1)
		s.schedule(t-s.q.now()+1, -1)
		s.runTo(t - calendarSpan/2)
		for _, dt := range []Cycles{0, 0, 1, 2} {
			if now := s.q.now(); t+dt >= now {
				s.schedule(t+dt-now, -1)
			}
		}
	default:
		s.schedule(s.delay(), -1)
	}
}

func runQueueScript(newModel func(fire func(uint64)) queueModel, pattern string, seed int64, steps int) []entry {
	s := &queueScript{rng: rand.New(rand.NewSource(seed)), pattern: pattern}
	s.q = newModel(s.fire)
	if s.herd() {
		for i := range s.idle {
			s.schedule(Cycles(i+1)*herdGap, i)
			s.idle[i] = s.schedule(idleTimer, -1)
		}
	} else {
		s.schedule(s.delay(), -1)
	}
	for i := 0; i < steps; i++ {
		s.step()
	}
	if !s.herd() {
		s.runTo(0)
	}
	return s.log
}

// TestQueueMatchesReference drives the kernel and the reference heap with
// the same seeded scripts and requires the same log: every event fires in
// the same (at, seq) order at the same instant, and after every Run the
// clock, Pending, the GlobalStats deltas (recycles, compactions) and the
// high-water mark agree.
func TestQueueMatchesReference(t *testing.T) {
	patterns := []string{"random", "burst", "tas", "deep-idle", "cancel-storm", "far"}
	seeds, steps := 40, 400
	if testing.Short() {
		seeds = 8
	}
	var fires, runs int
	for _, pattern := range patterns {
		for seed := int64(1); seed <= int64(seeds); seed++ {
			got := runQueueScript(newKernelModel, pattern, seed, steps)
			want := runQueueScript(newRefModel, pattern, seed, steps)
			for i := 0; i < len(got) || i < len(want); i++ {
				var g, w entry
				if i < len(got) {
					g = got[i]
				}
				if i < len(want) {
					w = want[i]
				}
				if g != w {
					t.Fatalf("%s/seed %d: entry %d of %d differs:\n kernel:    %v\n reference: %v", pattern, seed, i, len(want), g, w)
				}
				switch w.kind {
				case 'x':
					t.Fatalf("%s/seed %d: the reference made an %v", pattern, seed, w)
				case 'f':
					fires++
				case 'r':
					runs++
				}
			}
		}
	}
	t.Logf("%d fires and %d Run calls matched", fires, runs)
}
