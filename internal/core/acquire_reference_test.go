package core_test

import (
	"fmt"
	"maps"
	"math"
	"reflect"
	"slices"
	"testing"

	"lockin/internal/coherence"
	"lockin/internal/core"
	"lockin/internal/machine"
	"lockin/internal/power"
	"lockin/internal/sim"
	"lockin/internal/topo"
	"lockin/internal/workload"
)

// refTAS and refTTAS are TAS and TTAS as they were before
// machine.SpinAcquire: every lost retry resumes the thread, which
// settles its spin epoch and makes the next attempt itself. The loops
// are kept verbatim as the reference the fused acquire must match.
type refTAS struct{ line *coherence.Line }

func (l *refTAS) Name() string { return "TAS" }

func (l *refTAS) Lock(t *machine.Thread) {
	for {
		if t.Swap(l.line, 1) == 0 {
			return
		}
		t.SpinUntil(l.line, isZero, machine.WaitGlobal)
	}
}

func (l *refTAS) Unlock(t *machine.Thread) { t.Store(l.line, 0) }

type refTTAS struct {
	line *coherence.Line
	pol  machine.WaitPolicy
}

func (l *refTTAS) Name() string { return "TTAS" }

func (l *refTTAS) Lock(t *machine.Thread) {
	for {
		if t.CAS(l.line, 0, 1) {
			return
		}
		t.SpinUntil(l.line, isZero, l.pol)
	}
}

func (l *refTTAS) Unlock(t *machine.Thread) { t.Store(l.line, 0) }

func isZero(v uint64) bool { return v == 0 }

// lockPair is one lock under test and its reference.
type lockPair struct {
	name          string
	lock, refLock func(*machine.Machine) core.Lock
}

// lockPairs returns TAS and TTAS under every wait policy.
func lockPairs() []lockPair {
	pairs := []lockPair{{
		name:    "TAS",
		lock:    func(m *machine.Machine) core.Lock { return core.NewTAS(m) },
		refLock: func(m *machine.Machine) core.Lock { return &refTAS{line: m.NewLine("tas")} },
	}}
	for _, pol := range []machine.WaitPolicy{
		machine.WaitLocal, machine.WaitPause, machine.WaitMbar, machine.WaitGlobal,
		machine.WaitMwait, machine.WaitDVFS, machine.WaitMwaitUser,
	} {
		pairs = append(pairs, lockPair{
			name:    "TTAS-" + pol.String(),
			lock:    func(m *machine.Machine) core.Lock { return core.NewTTAS(m, pol) },
			refLock: func(m *machine.Machine) core.Lock { return &refTTAS{line: m.NewLine("ttas"), pol: pol} },
		})
	}
	return pairs
}

// threadStats is what the scheduler counts per thread.
type threadStats struct {
	Preemptions, Dispatches uint64
	RunCycles               sim.Cycles
}

// runStats is everything a run is compared on. Floating-point readings
// are kept as their bits.
type runStats struct {
	Ops, Acquires uint64
	End           sim.Cycles
	Energy        [3]uint64 // Package, Cores, DRAM
	CPI           []uint64  // per activity, and with Compute
	Latency       []uint64  // count, min, max, p50, p99
	Coherence     coherence.Stats
	Threads       []threadStats
	Recycles      uint64 // change in sim.GlobalStats().EventRecycles
}

// recorder is a lock that remembers every thread that called Lock, so
// that a run's per-thread counters can be read after it.
type recorder struct {
	lock    core.Lock
	threads map[int]*machine.Thread
}

func (r *recorder) Name() string { return r.lock.Name() }

func (r *recorder) Lock(t *machine.Thread) {
	r.threads[t.ID()] = t
	r.lock.Lock(t)
}

func (r *recorder) Unlock(t *machine.Thread) { r.lock.Unlock(t) }

// machineStats fills the fields that a machine and its threads hold
// after their run.
func machineStats(m *machine.Machine, threads []*machine.Thread, s *runStats) {
	// Each activity alone, then with Compute: a ratio of sums hides a
	// cycle count its instruction count scales with, so the pairs also
	// pin how many cycles each activity recorded.
	for a := power.Activity(0); a <= power.Mwait; a++ {
		s.CPI = append(s.CPI, math.Float64bits(m.CPI(a)), math.Float64bits(m.CPI(power.Compute, a)))
	}
	s.Coherence = m.Coh.Stats()
	for _, th := range threads {
		s.Threads = append(s.Threads, threadStats{th.Preemptions, th.Dispatches, th.RunCycles})
	}
}

// runMicro runs cfg with lock and reports its stats. Each thread that
// took the lock reports its counters, in spawn order.
func runMicro(cfg workload.MicroConfig, lock func(*machine.Machine) core.Lock) runStats {
	rec := &recorder{threads: map[int]*machine.Thread{}}
	cfg.Factory = func(m *machine.Machine) core.Lock {
		rec.lock = lock(m)
		return rec
	}
	before := sim.GlobalStats().EventRecycles
	r := workload.RunMicro(cfg)
	s := runStats{
		Ops:      r.Ops,
		Acquires: r.TotalAcquires,
		End:      r.EndTime,
		Energy:   [3]uint64{math.Float64bits(r.Energy.Package), math.Float64bits(r.Energy.Cores), math.Float64bits(r.Energy.DRAM)},
		Latency:  []uint64{r.Latency.Count(), r.Latency.Min(), r.Latency.Max(), r.Latency.Percentile(0.5), r.Latency.Percentile(0.99)},
		Recycles: sim.GlobalStats().EventRecycles - before,
	}
	var threads []*machine.Thread
	for _, id := range slices.Sorted(maps.Keys(rec.threads)) {
		threads = append(threads, rec.threads[id])
	}
	machineStats(r.Machine, threads, &s)
	return s
}

// runSpawnMidEpoch drives a machine directly: n threads take lock in a
// loop until the clock passes until, and every period cycles a thread is
// spawned that computes for a while and exits. Each spawn lands while
// the others spin, so the scheduler becomes oversubscribed in the middle
// of their spin epochs and attempts, until the spawned thread exits.
func runSpawnMidEpoch(cfg machine.Config, lock func(*machine.Machine) core.Lock, n int, period, until sim.Cycles) runStats {
	before := sim.GlobalStats().EventRecycles
	m := machine.New(cfg)
	l := lock(m)
	var s runStats
	var threads []*machine.Thread
	for i := 0; i < n; i++ {
		threads = append(threads, m.Spawn("worker", func(t *machine.Thread) {
			for t.Proc().Now() < until {
				l.Lock(t)
				s.Acquires++
				t.Compute(800)
				l.Unlock(t)
				t.Compute(150)
			}
		}))
	}
	for at := period; at < until; at += period {
		m.K.Schedule(at, func() {
			threads = append(threads, m.Spawn("late", func(t *machine.Thread) { t.Compute(600) }))
		})
	}
	s.End = m.K.Drain()
	e := m.Meter.Energy()
	s.Energy = [3]uint64{math.Float64bits(e.Package), math.Float64bits(e.Cores), math.Float64bits(e.DRAM)}
	s.Recycles = sim.GlobalStats().EventRecycles - before
	machineStats(m, threads, &s)
	return s
}

// TestSpinAcquireMatchesReference runs TAS and TTAS, whose lost retries
// run as kernel callbacks, next to the thread loops they replaced, on
// the same configurations, and requires the two simulations to agree
// bit for bit: ops, acquisitions, end time, energy, CPI, latency,
// coherence traffic, each thread's scheduling counters and the number
// of events the kernel recycled. The table covers every wait policy,
// machines under, at and over their context count, a timeslice short
// enough to split attempts into chunks and preempt inside them, and a
// thread spawned while the others spin. Every point where SpinAcquire
// hands a step back to its thread is taken in the table: the TTAS rows
// under mwait, mwait-user and DVFS run on the thread from the start, and
// spawn-mid-epoch/slice-300/TAS takes the arm and run hand-backs
// (TestSpinAcquireHandsBackEveryStep in internal/machine counts them).
//
// Under the race detector, which keeps state for every goroutine ever
// started (each simulated thread is one), the table shrinks to one
// thread count under, and one over, each machine's context count, and
// the spawn cases to TAS and TTAS with mbar; the full table runs
// without -race.
func TestSpinAcquireMatchesReference(t *testing.T) {
	type machineCase struct {
		name    string
		topo    topo.Topology
		threads []int
	}
	machines := []machineCase{
		{"xeon", topo.Xeon(), []int{1, 2, 39, 40, 41, 60}},
		{"corei7", topo.CoreI7(), []int{7, 8, 9}},
	}
	spawnPairs := lockPairs()
	if raceDetector {
		machines[0].threads = []int{2, 41}
		machines[1].threads = []int{7, 9}
		spawnPairs = []lockPair{spawnPairs[0], spawnPairs[3]}
	}
	timeslices := []struct {
		name      string
		timeslice sim.Cycles
		duration  sim.Cycles // of an oversubscribed cell; others run 300K
	}{
		{"default-slice", 0, 3_100_000}, // past one slice, so oversubscribed cells preempt
		{"slice-300", 300, 150_000},     // shorter than most attempts
	}
	compare := func(t *testing.T, got, want runStats) {
		t.Helper()
		if got.Acquires == 0 {
			t.Fatal("no acquisitions")
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("SpinAcquire and the reference loop differ:\n got %+v\nwant %+v", got, want)
		}
	}
	for _, mc := range machines {
		for _, sl := range timeslices {
			for _, n := range mc.threads {
				for _, lp := range lockPairs() {
					t.Run(fmt.Sprintf("%s/%s/%d/%s", mc.name, sl.name, n, lp.name), func(t *testing.T) {
						cfg := workload.DefaultMicroConfig(42)
						cfg.Machine.Topo = mc.topo
						if sl.timeslice != 0 {
							cfg.Machine.Sched.Timeslice = sl.timeslice
						}
						cfg.Threads = n
						cfg.Warmup = 50_000
						cfg.Duration = min(sl.duration, 300_000)
						if n > mc.topo.NumContexts() {
							cfg.Duration = sl.duration
						}
						cfg.RecordLatency = true
						want := runMicro(cfg, lp.refLock)
						compare(t, runMicro(cfg, lp.lock), want)
					})
				}
			}
		}
	}
	for _, sl := range timeslices {
		for _, lp := range spawnPairs {
			t.Run(fmt.Sprintf("spawn-mid-epoch/%s/%s", sl.name, lp.name), func(t *testing.T) {
				cfg := machine.DefaultConfig(7)
				if sl.timeslice != 0 {
					cfg.Sched.Timeslice = sl.timeslice
				}
				want := runSpawnMidEpoch(cfg, lp.refLock, 40, 25_013, 300_000)
				compare(t, runSpawnMidEpoch(cfg, lp.lock, 40, 25_013, 300_000), want)
			})
		}
	}
}
