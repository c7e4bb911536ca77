package core

import (
	"testing"

	"lockin/internal/machine"
	"lockin/internal/sim"
	"lockin/internal/topo"
)

// exercise runs nthreads × iters lock/unlock cycles with a cs-cycle
// critical section, asserting mutual exclusion throughout. It returns the
// end-of-run virtual time.
func exercise(t *testing.T, mk func(m *machine.Machine) Lock, nthreads, iters int, cs sim.Cycles) sim.Cycles {
	t.Helper()
	m := machine.NewDefault(1)
	l := mk(m)
	holder := -1
	total := 0
	for i := 0; i < nthreads; i++ {
		m.Spawn("w", func(th *machine.Thread) {
			for j := 0; j < iters; j++ {
				l.Lock(th)
				if holder != -1 {
					t.Errorf("%s: mutual exclusion violated: %d inside with %d", l.Name(), th.ID(), holder)
				}
				holder = th.ID()
				th.Compute(cs)
				if holder != th.ID() {
					t.Errorf("%s: lost the lock mid-critical-section", l.Name())
				}
				holder = -1
				total++
				l.Unlock(th)
				th.Compute(cs / 2)
			}
		})
	}
	end := m.K.Drain()
	if total != nthreads*iters {
		t.Fatalf("%s: completed %d/%d acquisitions", l.Name(), total, nthreads*iters)
	}
	return end
}

func TestMutualExclusionAllLocks(t *testing.T) {
	for _, k := range AllKinds() {
		k := k
		t.Run(k.String(), func(t *testing.T) {
			exercise(t, func(m *machine.Machine) Lock { return New(m, k) }, 8, 40, 1000)
		})
	}
}

func TestSingleThreadedAllLocks(t *testing.T) {
	for _, k := range AllKinds() {
		k := k
		t.Run(k.String(), func(t *testing.T) {
			exercise(t, func(m *machine.Machine) Lock { return New(m, k) }, 1, 200, 100)
		})
	}
}

func TestHighContentionAllLocks(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, k := range AllKinds() {
		k := k
		t.Run(k.String(), func(t *testing.T) {
			exercise(t, func(m *machine.Machine) Lock { return New(m, k) }, 32, 15, 2000)
		})
	}
}

func TestOversubscriptionAllLocks(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	// More threads than the 8-context desktop topology: spinlocks must
	// still make progress via preemption.
	for _, k := range AllKinds() {
		k := k
		t.Run(k.String(), func(t *testing.T) {
			cfg := machine.DefaultConfig(3)
			cfg.Topo = topo.CoreI7()
			cfg.Sched.Timeslice = 200_000
			m := machine.New(cfg)
			l := New(m, k)
			total := 0
			for i := 0; i < 12; i++ {
				m.Spawn("w", func(th *machine.Thread) {
					for j := 0; j < 10; j++ {
						l.Lock(th)
						th.Compute(500)
						l.Unlock(th)
						total++
					}
				})
			}
			m.K.Drain()
			if total != 120 {
				t.Fatalf("completed %d/120", total)
			}
		})
	}
}

func TestTicketFIFOFairness(t *testing.T) {
	m := machine.NewDefault(1)
	l := NewTicket(m, machine.WaitMbar)
	var order []int
	gate := m.NewLine("gate")
	for i := 0; i < 6; i++ {
		i := i
		m.Spawn("w", func(th *machine.Thread) {
			// Stagger arrival so ticket order is deterministic.
			th.Compute(sim.Cycles(1000 * (i + 1)))
			l.Lock(th)
			order = append(order, i)
			th.Compute(50_000)
			l.Unlock(th)
			th.FetchAdd(gate, 1)
		})
	}
	m.K.Drain()
	for i := range order {
		if order[i] != i {
			t.Fatalf("ticket order %v, want strict FIFO", order)
		}
	}
}

func TestMutexSleepsUnderContention(t *testing.T) {
	m := machine.NewDefault(1)
	l := NewMutex(m)
	for i := 0; i < 8; i++ {
		m.Spawn("w", func(th *machine.Thread) {
			for j := 0; j < 20; j++ {
				l.Lock(th)
				th.Compute(5000) // long enough that spinners give up
				l.Unlock(th)
			}
		})
	}
	m.K.Drain()
	st := l.Stats()
	if st.Sleeps == 0 {
		t.Fatal("contended MUTEX never slept")
	}
	if st.Wakes == 0 {
		t.Fatal("contended MUTEX never issued a futex wake")
	}
}

func TestMutexeeSkipsWakesViaUserSpaceHandover(t *testing.T) {
	m := machine.NewDefault(1)
	l := NewMutexee(m, DefaultMutexeeOptions())
	for i := 0; i < 8; i++ {
		m.Spawn("w", func(th *machine.Thread) {
			for j := 0; j < 50; j++ {
				l.Lock(th)
				th.Compute(1000)
				l.Unlock(th)
			}
		})
	}
	m.K.Drain()
	st := l.Stats()
	if st.Acquisitions != 400 {
		t.Fatalf("acquisitions %d, want 400", st.Acquisitions)
	}
	// With 1000-cycle critical sections, MUTEXEE should keep most
	// handovers futex-free (that is its design goal).
	if st.Sleeps*5 > st.Acquisitions {
		t.Fatalf("MUTEXEE slept too often: %d sleeps / %d acquisitions", st.Sleeps, st.Acquisitions)
	}
}

func TestMutexeeFewerFutexCallsThanMutex(t *testing.T) {
	countFutex := func(mk func(m *machine.Machine) Lock) uint64 {
		m := machine.NewDefault(1)
		l := mk(m)
		for i := 0; i < 10; i++ {
			m.Spawn("w", func(th *machine.Thread) {
				for j := 0; j < 40; j++ {
					l.Lock(th)
					th.Compute(2000)
					l.Unlock(th)
					th.Compute(500)
				}
			})
		}
		m.K.Drain()
		s := m.Futex.Stats()
		return s.Waits + s.Wakes
	}
	mutex := countFutex(func(m *machine.Machine) Lock { return NewMutex(m) })
	mutexee := countFutex(func(m *machine.Machine) Lock { return NewMutexee(m, DefaultMutexeeOptions()) })
	if mutexee*2 > mutex {
		t.Fatalf("MUTEXEE futex calls (%d) not well below MUTEX (%d)", mutexee, mutex)
	}
}

func TestMutexeeModeAdaptation(t *testing.T) {
	o := DefaultMutexeeOptions()
	o.AdaptPeriod = 64
	m := machine.NewDefault(1)
	l := NewMutexee(m, o)
	// Very long critical sections force futex sleeps, which should flip
	// the lock into mutex mode.
	for i := 0; i < 8; i++ {
		m.Spawn("w", func(th *machine.Thread) {
			for j := 0; j < 40; j++ {
				l.Lock(th)
				th.Compute(60_000)
				l.Unlock(th)
			}
		})
	}
	m.K.Drain()
	if l.Mode() != ModeMutex {
		t.Fatalf("mode %v after long-CS run, want mutex (switches: %d, sleeps: %d/%d)",
			l.Mode(), l.Stats().ModeSwitches, l.Stats().Sleeps, l.Stats().Acquisitions)
	}
}

func TestMutexeeTimeoutBoundsSleep(t *testing.T) {
	o := DefaultMutexeeOptions()
	o.Timeout = 100_000
	m := machine.NewDefault(1)
	l := NewMutexee(m, o)
	// One holder camps on the lock; sleepers must time out and then
	// acquire by spinning.
	acquired := 0
	m.Spawn("holder", func(th *machine.Thread) {
		l.Lock(th)
		th.Compute(3_000_000)
		l.Unlock(th)
	})
	for i := 0; i < 4; i++ {
		m.Spawn("waiter", func(th *machine.Thread) {
			th.Compute(1000)
			l.Lock(th)
			th.Compute(1000)
			l.Unlock(th)
			acquired++
		})
	}
	m.K.Drain()
	if acquired != 4 {
		t.Fatalf("acquired %d/4", acquired)
	}
	if l.Stats().Timeouts == 0 {
		t.Fatal("no futex timeouts recorded despite camping holder")
	}
}

func TestCondSignalWakesWaiter(t *testing.T) {
	m := machine.NewDefault(1)
	l := New(m, KindMutexee)
	c := NewCond(m)
	ready := false
	consumed := false
	m.Spawn("consumer", func(th *machine.Thread) {
		l.Lock(th)
		for !ready {
			c.Wait(th, l)
		}
		consumed = true
		l.Unlock(th)
	})
	m.Spawn("producer", func(th *machine.Thread) {
		th.Compute(200_000)
		l.Lock(th)
		ready = true
		l.Unlock(th)
		c.Signal(th)
	})
	m.K.Drain()
	if !consumed {
		t.Fatal("consumer never woke")
	}
}

func TestCondBroadcast(t *testing.T) {
	m := machine.NewDefault(1)
	l := New(m, KindMutex)
	c := NewCond(m)
	released := false
	woken := 0
	for i := 0; i < 6; i++ {
		m.Spawn("waiter", func(th *machine.Thread) {
			l.Lock(th)
			for !released {
				c.Wait(th, l)
			}
			woken++
			l.Unlock(th)
		})
	}
	m.Spawn("broadcaster", func(th *machine.Thread) {
		th.Compute(500_000)
		l.Lock(th)
		released = true
		l.Unlock(th)
		c.Broadcast(th)
	})
	m.K.Drain()
	if woken != 6 {
		t.Fatalf("woken %d/6", woken)
	}
}

func TestRWLockReadersShareWritersExclude(t *testing.T) {
	m := machine.NewDefault(1)
	rw := NewRWLock(m, New(m, KindMutexee), machine.WaitMbar)
	activeReaders := 0
	maxReaders := 0
	writerIn := false
	for i := 0; i < 6; i++ {
		m.Spawn("reader", func(th *machine.Thread) {
			for j := 0; j < 10; j++ {
				rw.RLock(th)
				if writerIn {
					t.Error("reader inside while writer holds the lock")
				}
				activeReaders++
				if activeReaders > maxReaders {
					maxReaders = activeReaders
				}
				th.Compute(3000)
				activeReaders--
				rw.RUnlock(th)
				th.Compute(500)
			}
		})
	}
	for i := 0; i < 2; i++ {
		m.Spawn("writer", func(th *machine.Thread) {
			for j := 0; j < 5; j++ {
				rw.Lock(th)
				if activeReaders != 0 {
					t.Errorf("writer entered with %d active readers", activeReaders)
				}
				writerIn = true
				th.Compute(2000)
				writerIn = false
				rw.Unlock(th)
				th.Compute(2000)
			}
		})
	}
	m.K.Drain()
	if maxReaders < 2 {
		t.Fatalf("max concurrent readers %d: readers never overlapped", maxReaders)
	}
}

// TestKindParsingAndNames: every catalogue entry's name parses back to
// its kind (so names are unique) and builds a lock printing that name.
func TestKindParsingAndNames(t *testing.T) {
	m := machine.NewDefault(1)
	for k := Kind(0); int(k) < len(catalogue); k++ {
		got, err := ParseKind(k.String())
		if err != nil || got != k {
			t.Fatalf("round-trip failed for %v: %v %v", k, got, err)
		}
		if name := New(m, k).Name(); name != k.String() {
			t.Errorf("New(%v).Name() = %q, want %q", k, name, k.String())
		}
	}
	if _, err := ParseKind("nope"); err == nil {
		t.Fatal("ParseKind accepted garbage")
	}
	if Kind(99).String() == "" {
		t.Fatal("out-of-range kind name empty")
	}
	if ModeSpin.String() == ModeMutex.String() {
		t.Fatal("mode names collide")
	}
}

func TestUncontestedOverheadOrdering(t *testing.T) {
	// Table 2: simple spinlocks are fastest uncontested; MUTEX and MCS
	// are slowest; MUTEXEE sits in between.
	single := func(k Kind) sim.Cycles {
		m := machine.NewDefault(1)
		l := New(m, k)
		m.Spawn("w", func(th *machine.Thread) {
			for j := 0; j < 300; j++ {
				l.Lock(th)
				th.Compute(100)
				l.Unlock(th)
			}
		})
		return m.K.Drain()
	}
	tas := single(KindTAS)
	ticket := single(KindTicket)
	mutex := single(KindMutex)
	mcs := single(KindMCS)
	mutexee := single(KindMutexee)
	if !(tas < mutexee && ticket < mutexee) {
		t.Fatalf("spinlocks should beat MUTEXEE uncontested: tas %d ticket %d mutexee %d", tas, ticket, mutexee)
	}
	if !(mutexee < mutex) {
		t.Fatalf("MUTEXEE (%d) should beat MUTEX (%d) uncontested", mutexee, mutex)
	}
	if !(tas < mcs) {
		t.Fatalf("TAS (%d) should beat MCS (%d) uncontested", tas, mcs)
	}
}
