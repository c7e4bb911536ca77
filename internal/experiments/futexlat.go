package experiments

import (
	"sort"

	"lockin/internal/coherence"
	"lockin/internal/futex"
	"lockin/internal/machine"
	"lockin/internal/metrics"
	"lockin/internal/power"
	"lockin/internal/sim"
	"lockin/internal/sweep"
)

// runFig6 reproduces the futex latency microbenchmark: two threads in
// lock-step; one sleeps on a futex, the other wakes it after a delay.
// Reported: the wake-up call latency and the turnaround latency (from
// wake invocation until the woken thread runs), as medians over many
// rounds per delay. Each delay is one grid cell.
func runFig6(o Options) []*metrics.Table {
	delays := []sim.Cycles{100, 300, 1_000, 3_000, 10_000, 30_000, 100_000, 300_000, 1_000_000, 3_000_000, 10_000_000}
	if o.Quick {
		delays = []sim.Cycles{1_000, 10_000, 100_000, 1_000_000, 10_000_000}
	}
	rounds := 15
	t := metrics.NewTable("Figure 6 — futex operation latencies",
		"delay(cycles)", "wake-call p50", "wake-call p95", "turnaround p50", "turnaround p95")
	g := sweep.NewGrid(o)
	for _, d := range delays {
		d := d
		g.Add(func(c sweep.Cell) []sweep.Row {
			wake, turn := futexRoundTrips(o, c.Seed, d, rounds)
			return []sweep.Row{{uint64(d), pct(wake, 0.5), pct(wake, 0.95), pct(turn, 0.5), pct(turn, 0.95)}}
		})
	}
	g.Into(t)
	t.AddNote("turnaround = wake invocation → woken thread running; paper floor ≈7000 cycles")
	return []*metrics.Table{t}
}

func pct(xs []sim.Cycles, q float64) uint64 {
	if len(xs) == 0 {
		return 0
	}
	s := make([]sim.Cycles, len(xs))
	copy(s, xs)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	idx := int(q * float64(len(s)-1))
	return uint64(s[idx])
}

// futexRoundTrips runs `rounds` sleep/wake pairs with the given delay
// between the sleep call and the wake call, collecting per-round wake
// call latency and turnaround latency.
func futexRoundTrips(o Options, seed int64, delay sim.Cycles, rounds int) (wakeLat, turnLat []sim.Cycles) {
	m := machine.New(machine.DefaultConfig(seed))
	line := m.NewLine("word")
	w := m.NewFutexWord(line)
	var resumedAt sim.Cycles

	// Round protocol, one round at a time:
	//   sleeper stores word=1, futex-waits; after `delay` the waker
	//   issues the wake call; the sleeper records when it resumes.
	m.Spawn("sleeper", func(t *machine.Thread) {
		for i := 0; i < rounds; i++ {
			t.Store(line, 1)
			t.FutexWait(w, 1, 0)
			resumedAt = t.Proc().Now()
			t.Store(line, 0)
		}
	})
	m.Spawn("waker", func(t *machine.Thread) {
		for i := 0; i < rounds; i++ {
			// Wait until the sleeper has armed the round.
			t.SpinUntil(line, func(v uint64) bool { return v == 1 }, machine.WaitMbar)
			// Give the sleep call time to complete, then the measured delay.
			t.Compute(3000)
			t.Compute(delay)
			issued := t.Proc().Now()
			t.FutexWake(w, 1)
			done := t.Proc().Now()
			wakeLat = append(wakeLat, done-issued)
			// Wait for the sleeper to run and close the round.
			t.SpinUntil(line, func(v uint64) bool { return v == 0 }, machine.WaitMbar)
			turnLat = append(turnLat, resumedAt-issued)
		}
	})
	m.K.Drain()
	return wakeLat, turnLat
}

// runSleepPeriodTable reproduces the §4.4 sleep-benefit table: one thread
// sleeps on a futex, the second wakes it with a fixed period; average
// power is reported per period. One cell per period.
func runSleepPeriodTable(o Options) []*metrics.Table {
	t := metrics.NewTable("§4.4 — power vs period between wake-up calls",
		"period(cycles)", "power(W)")
	g := sweep.NewGrid(o)
	for _, period := range []sim.Cycles{1024, 2048, 4096, 8192} {
		period := period
		g.Add(func(c sweep.Cell) []sweep.Row {
			m := machine.New(machine.DefaultConfig(c.Seed))
			line := m.NewLine("word")
			w := m.NewFutexWord(line)
			stop := o.Window(4_000_000)
			m.Spawn("sleeper", func(t *machine.Thread) {
				for t.Proc().Now() < stop {
					t.Store(line, 1)
					t.FutexWait(w, 1, 0)
				}
			})
			m.Spawn("waker", func(t *machine.Thread) {
				for t.Proc().Now() < stop {
					t.Compute(period)
					t.Store(line, 0)
					t.FutexWake(w, 1)
				}
			})
			e0snap := power.Energy{}
			var e1snap power.Energy
			m.K.Schedule(o.Window(300_000), func() { e0snap = m.Meter.Energy() })
			m.K.Schedule(stop, func() { e1snap = m.Meter.Energy() })
			m.K.Drain()
			p := e1snap.Sub(e0snap).Power(stop-o.Window(300_000), m.Config().Power.BaseFreqGHz)
			return []sweep.Row{{uint64(period), p.Total}}
		})
	}
	g.Into(t)
	t.AddNote("power decreases only once the period exceeds the ≈2100-cycle sleep latency")
	return []*metrics.Table{t}
}

// runFig7 reproduces the spin-then-sleep communication benchmark: N
// threads hand a token around; at most two communicate via busy waiting
// while the rest sleep; after T busy handovers the active thread wakes a
// sleeper and goes to sleep itself. One (thread count, scheme) pair per
// cell.
func runFig7(o Options) []*metrics.Table {
	t := metrics.NewTable("Figure 7 — sleep vs spin vs spin-then-sleep",
		"threads", "scheme", "power(W)", "handovers(Mops/s)")
	threads := []int{2, 10, 20, 40}
	if o.Quick {
		threads = []int{10, 40}
	}
	schemes := []struct {
		name string
		T    int
	}{{"sleep", 0}, {"spin", -1}, {"ss-1", 1}, {"ss-10", 10}, {"ss-100", 100}, {"ss-1000", 1000}}
	g := sweep.NewGrid(o)
	for _, n := range threads {
		for _, sc := range schemes {
			n, sc := n, sc
			g.Add(func(c sweep.Cell) []sweep.Row {
				p, thr := runHandoff(o, c.Seed, n, sc.T)
				return []sweep.Row{{n, sc.name, p, thr / 1e6}}
			})
		}
	}
	g.Into(t)
	t.AddNote("T = busy-wait handovers per futex handover; spin = all threads busy-wait")
	return []*metrics.Table{t}
}

// runHandoff measures token handovers/second and power for one scheme.
//
//	T == -1: all threads busy-wait in a ring ("spin").
//	T ==  0: every handover goes through a futex wake ("sleep").
//	T  >  0: exactly two threads exchange the token with busy waiting; after
//	         T busy handovers the quota-exhausted thread wakes a sleeper to
//	         take its place and goes to sleep ("ss-T").
//
// Each thread sleeps on its own futex word, so wakes are targeted.
func runHandoff(o Options, seed int64, n, T int) (watts, handoversPerSec float64) {
	m := machine.New(machine.DefaultConfig(seed))
	token := m.NewLine("token") // id+1 of the thread allowed to act
	stop := o.Window(4_000_000)
	measFrom := o.Window(300_000)
	handovers := 0
	token.Init(1) // thread 0 acts first

	words := make([]*futexPair, n)
	for i := range words {
		line := m.NewLine("sleep")
		words[i] = &futexPair{line: line, w: m.NewFutexWord(line)}
	}
	// Role state, consistent because the simulation is sequential.
	partner := make([]int, n)
	var sleepQ []int
	if n >= 2 {
		partner[0], partner[1] = 1, 0
		for i := 2; i < n; i++ {
			sleepQ = append(sleepQ, i)
			partner[i] = -1
		}
	} else {
		partner[0] = 0
	}

	myTurn := func(id int) func(uint64) bool {
		return func(v uint64) bool { return v == uint64(id)+1 }
	}

	for i := 0; i < n; i++ {
		id := i
		m.Spawn("worker", func(t *machine.Thread) {
			burst := 0
			sleep := func() {
				t.Store(words[id].line, 1)
				t.FutexWait(words[id].w, 1, 0)
			}
			wake := func(who int) {
				t.Store(words[who].line, 0)
				t.FutexWake(words[who].w, 1)
			}
			if T > 0 && partner[id] < 0 {
				sleep() // starts out of the active pair
			}
			for t.Proc().Now() < stop {
				switch {
				case T == -1: // pure spinning ring
					t.SpinUntil(token, myTurn(id), machine.WaitMbar)
					if t.Proc().Now() >= stop {
						return
					}
					if t.Proc().Now() >= measFrom {
						handovers++
					}
					t.Store(token, uint64((id+1)%n)+1)
				case T == 0: // every handover through a futex wake
					if t.Load(token) != uint64(id)+1 {
						sleep()
						continue
					}
					if t.Proc().Now() >= measFrom {
						handovers++
					}
					nxt := (id + 1) % n
					t.Store(token, uint64(nxt)+1)
					wake(nxt)
				default: // spin-then-sleep with quota T
					t.SpinUntil(token, myTurn(id), machine.WaitMbar)
					if t.Proc().Now() >= stop {
						return
					}
					if t.Proc().Now() >= measFrom {
						handovers++
					}
					burst++
					if burst >= T && len(sleepQ) > 0 {
						// Hand our role to a sleeper and go to sleep.
						s := sleepQ[0]
						sleepQ = sleepQ[:copy(sleepQ, sleepQ[1:])]
						p := partner[id]
						partner[s], partner[p] = p, s
						partner[id] = -1
						sleepQ = append(sleepQ, id)
						t.Store(token, uint64(s)+1)
						wake(s)
						burst = 0
						sleep()
						continue
					}
					if burst >= T {
						burst = 0
					}
					t.Store(token, uint64(partner[id])+1)
				}
			}
		})
	}
	var e0, e1 power.Energy
	m.K.Schedule(measFrom, func() { e0 = m.Meter.Energy() })
	m.K.Schedule(stop, func() {
		e1 = m.Meter.Energy()
		for _, fp := range words {
			m.Futex.KernelWakeAll(fp.w)
		}
	})
	m.K.Drain()
	window := stop - measFrom
	p := e1.Sub(e0).Power(window, m.Config().Power.BaseFreqGHz)
	secs := float64(window) / (m.Config().Power.BaseFreqGHz * 1e9)
	return p.Total, float64(handovers) / secs
}

type futexPair struct {
	line *coherence.Line
	w    *futex.Word
}
