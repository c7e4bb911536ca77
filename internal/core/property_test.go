package core

import (
	"testing"
	"testing/quick"

	"lockin/internal/machine"
	"lockin/internal/sim"
	"lockin/internal/topo"
)

// TestLockProperty checks the fundamental lock invariants under randomly
// drawn configurations: mutual exclusion always holds, every acquisition
// completes, and the total acquisition count is exact.
func TestLockProperty(t *testing.T) {
	f := func(kindSeed, threadSeed, csSeed uint8, seed int64) bool {
		kind := Kind(int(kindSeed) % int(paperKinds))
		threads := 1 + int(threadSeed)%10
		cs := sim.Cycles(csSeed) * 40
		m := machine.NewDefault(seed)
		l := New(m, kind)
		holder := -1
		violations := 0
		done := 0
		for i := 0; i < threads; i++ {
			m.Spawn("w", func(th *machine.Thread) {
				for j := 0; j < 6; j++ {
					l.Lock(th)
					if holder != -1 {
						violations++
					}
					holder = th.ID()
					th.Compute(cs)
					if holder != th.ID() {
						violations++
					}
					holder = -1
					l.Unlock(th)
					th.Compute(cs / 3)
					done++
				}
			})
		}
		m.K.Drain()
		return violations == 0 && done == threads*6
	}
	cfg := &quick.Config{MaxCount: 40}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestLockPropertyOversubscribed repeats the invariant check with more
// threads than hardware contexts on the small desktop topology.
func TestLockPropertyOversubscribed(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	f := func(kindSeed uint8, seed int64) bool {
		kind := Kind(int(kindSeed) % int(paperKinds))
		cfg := machine.DefaultConfig(seed)
		cfg.Topo = topo.CoreI7()
		cfg.Sched.Timeslice = 150_000
		m := machine.New(cfg)
		l := New(m, kind)
		holder := -1
		ok := true
		done := 0
		for i := 0; i < 12; i++ {
			m.Spawn("w", func(th *machine.Thread) {
				for j := 0; j < 4; j++ {
					l.Lock(th)
					if holder != -1 {
						ok = false
					}
					holder = th.ID()
					th.Compute(700)
					if holder != th.ID() {
						ok = false
					}
					holder = -1
					l.Unlock(th)
					done++
				}
			})
		}
		m.K.Drain()
		return ok && done == 48
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// TestMutexeeSleeperAccounting asserts the packed sleeper count always
// returns to zero once the system quiesces, across random contention.
func TestMutexeeSleeperAccounting(t *testing.T) {
	f := func(threadSeed, csSeed uint8, seed int64) bool {
		threads := 2 + int(threadSeed)%12
		cs := sim.Cycles(csSeed)*100 + 100
		m := machine.NewDefault(seed)
		o := DefaultMutexeeOptions()
		o.SpinLock = 2000 // force plenty of sleeping
		l := NewMutexee(m, o)
		for i := 0; i < threads; i++ {
			m.Spawn("w", func(th *machine.Thread) {
				for j := 0; j < 8; j++ {
					l.Lock(th)
					th.Compute(cs)
					l.Unlock(th)
					th.Compute(cs / 2)
				}
			})
		}
		m.K.Drain()
		return l.Word() == 0 // no held bit, no leaked sleepers
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestMutexeeTimeoutNeverLosesLock injects timeouts into heavy
// contention and checks that the lock still ends free with all work done.
func TestMutexeeTimeoutNeverLosesLock(t *testing.T) {
	f := func(toSeed uint8, seed int64) bool {
		m := machine.NewDefault(seed)
		o := DefaultMutexeeOptions()
		o.Timeout = sim.Cycles(toSeed)*2000 + 10_000
		l := NewMutexee(m, o)
		done := 0
		for i := 0; i < 10; i++ {
			m.Spawn("w", func(th *machine.Thread) {
				for j := 0; j < 5; j++ {
					l.Lock(th)
					th.Compute(20_000) // long enough to trigger timeouts
					l.Unlock(th)
					done++
				}
			})
		}
		m.K.Drain()
		return done == 50 && l.Word() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// TestRWLockInvariant: never a writer concurrent with a reader, reader
// count returns to zero.
func TestRWLockInvariant(t *testing.T) {
	f := func(kindSeed uint8, seed int64) bool {
		kind := Kind(int(kindSeed) % int(paperKinds))
		m := machine.NewDefault(seed)
		rw := NewRWLock(m, New(m, kind), machine.WaitMbar)
		readers, writers := 0, 0
		ok := true
		for i := 0; i < 4; i++ {
			m.Spawn("r", func(th *machine.Thread) {
				for j := 0; j < 6; j++ {
					rw.RLock(th)
					readers++
					if writers != 0 {
						ok = false
					}
					th.Compute(500)
					readers--
					rw.RUnlock(th)
					th.Compute(200)
				}
			})
		}
		for i := 0; i < 2; i++ {
			m.Spawn("w", func(th *machine.Thread) {
				for j := 0; j < 4; j++ {
					rw.Lock(th)
					writers++
					if readers != 0 || writers != 1 {
						ok = false
					}
					th.Compute(400)
					writers--
					rw.Unlock(th)
					th.Compute(300)
				}
			})
		}
		m.K.Drain()
		return ok && readers == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestCondWaitRequeues: a waiter that wakes to a false predicate simply
// waits again without losing signals.
func TestCondWaitRequeues(t *testing.T) {
	m := machine.NewDefault(1)
	l := New(m, KindMutexee)
	c := NewCond(m)
	stage := 0
	finished := false
	m.Spawn("waiter", func(th *machine.Thread) {
		l.Lock(th)
		for stage < 2 {
			c.Wait(th, l)
		}
		finished = true
		l.Unlock(th)
	})
	m.Spawn("signaller", func(th *machine.Thread) {
		for i := 0; i < 2; i++ {
			th.Compute(200_000)
			l.Lock(th)
			stage++
			l.Unlock(th)
			c.Signal(th)
		}
	})
	m.K.Drain()
	if !finished {
		t.Fatal("waiter never saw stage 2")
	}
}
