package sim

import "testing"

// BenchmarkKernelSchedule measures steady-state event scheduling: one
// Schedule plus its eventual pop, with the queue depth bounded so the
// working set stays hot. This is the innermost operation of every
// simulated cycle-advance and must be allocation-free in steady state.
func BenchmarkKernelSchedule(b *testing.B) {
	k := NewKernel(1)
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.Schedule(Cycles(i&63), fn)
		if k.Pending() >= 1024 {
			k.Drain()
		}
	}
	k.Drain()
}

// BenchmarkKernelScheduleCancel measures the schedule-then-cancel cycle
// (futex timeout timers that a wake beats), including the lazy-compaction
// machinery that keeps cancelled events from accumulating.
func BenchmarkKernelScheduleCancel(b *testing.B) {
	k := NewKernel(1)
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := k.Schedule(Cycles(1000+i&63), fn)
		k.Schedule(Cycles(i&63), fn)
		k.Cancel(e)
		if k.Pending() >= 1024 {
			k.Drain()
		}
	}
	k.Drain()
}

// BenchmarkProcParkWake measures the self-wake path: a proc that sleeps
// repeatedly with no interleaving events, i.e. park + timer wake with
// the control token returning to the same proc.
func BenchmarkProcParkWake(b *testing.B) {
	k := NewKernel(1)
	n := b.N
	k.Go(0, "sleeper", 0, func(p *Proc) {
		for i := 0; i < n; i++ {
			p.Sleep(10)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	k.Drain()
}

// BenchmarkProcHandoff measures the cross-proc transfer path: two procs
// whose sleep wakes interleave, so every park hands control to the other
// proc (the pattern of every lock handover in the simulator).
func BenchmarkProcHandoff(b *testing.B) {
	k := NewKernel(1)
	n := b.N
	body := func(p *Proc) {
		for i := 0; i < n; i++ {
			p.Sleep(10)
		}
	}
	k.Go(0, "a", 0, body)
	k.Go(1, "b", 5, body)
	b.ReportAllocs()
	b.ResetTimer()
	k.Drain()
}

// BenchmarkProcHandoffRing is the handoff path for 8 procs in round
// robin, the driver stack's near-worst case: each round (one op) hands
// off 8 times, resuming 7 procs up the stack, and the 8th handoff
// unwinds 7 levels.
func BenchmarkProcHandoffRing(b *testing.B) {
	const procs = 8
	k := NewKernel(1)
	n := b.N
	for i := 0; i < procs; i++ {
		k.Go(i, "p", Cycles(i), func(p *Proc) {
			for j := 0; j < n; j++ {
				p.Sleep(procs)
			}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	k.Drain()
}

const (
	herdSize   = 40
	herdGap    = 10 // a TAS release's reload stagger
	herdPeriod = herdSize * herdGap
	idleTimer  = 600_000 // a deep-idle timer, far past the calendar
)

// herd is a ring of herdSize pending events herdGap cycles apart, each
// re-armed herdPeriod cycles after it fires, so the ring keeps its
// stagger: a TAS herd's reloads after each release. With idle set, each
// fire also replaces its member's deep-idle timer, idleTimer cycles out:
// MUTEX's idle churn, whose timers almost never fire.
type herd struct {
	k    *Kernel
	left int
	idle []Event
}

func herdFire(obj any, m, _ uint64) {
	h := obj.(*herd)
	if h.idle != nil {
		h.k.Cancel(h.idle[m])
		h.idle[m] = h.k.ScheduleCall(idleTimer, nopCall, nil, 0, 0)
	}
	if h.left > 0 {
		h.left--
		h.k.ScheduleCall(herdPeriod, herdFire, h, m, 0)
	}
}

func runHerd(b *testing.B, deepIdle bool) {
	k := NewKernel(1)
	h := &herd{k: k, left: b.N}
	if deepIdle {
		h.idle = make([]Event, herdSize)
	}
	for m := 0; m < herdSize; m++ {
		k.ScheduleCall(Cycles(m+1)*herdGap, herdFire, h, uint64(m), 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	k.Drain()
}

// BenchmarkKernelHerd measures one fire and re-arm of a 40-event herd
// staggered 10 cycles apart: every event is due within the calendar.
func BenchmarkKernelHerd(b *testing.B) { runHerd(b, false) }

// BenchmarkKernelDeepIdle is the herd with a 600K-cycle timer scheduled
// and the previous one cancelled per fire: the timers go to the heap, and
// the cancelled ones are compacted away.
func BenchmarkKernelDeepIdle(b *testing.B) { runHerd(b, true) }
