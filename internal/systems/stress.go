package systems

import (
	"lockin/internal/machine"
	"lockin/internal/power"
	"lockin/internal/sim"
	"lockin/internal/workload"
)

// CopyOnWriteList models the java.util.concurrent.CopyOnWriteArrayList
// stress test of Figure 1: mutators take the list's lock and copy the
// backing array (memory-heavy critical section); the occasional readers
// are lock-free. The waiting strategy of the lock (sleeping vs busy
// waiting) dominates both power and throughput.
func CopyOnWriteList(threads int) Definition {
	return func(r *Runner, f workload.LockFactory) {
		l := f(r.M)
		for i := 0; i < threads; i++ {
			r.M.Spawn("cow", func(t *machine.Thread) {
				for r.Running(t) {
					start := t.Proc().Now()
					l.Lock(t)
					// Copy the array: memory-bound critical section.
					t.SetActivity(power.MemStress)
					t.Run(2500)
					l.Unlock(t)
					r.Note(t, start)
					t.Compute(5000) // produce the next element
				}
			})
		}
	}
}

// MemoryStress is the §3.1 maximum-power benchmark: each thread streams
// over large chunks of memory from its local node. Used by Figure 2 to
// chart the power breakdown against active hyper-thread count and
// voltage-frequency setting.
func MemoryStress(threads int, vf power.VF) Definition {
	return func(r *Runner, f workload.LockFactory) {
		for i := 0; i < threads; i++ {
			r.M.Spawn("mem", func(t *machine.Thread) {
				t.SetVF(vf)
				for r.Running(t) {
					start := t.Proc().Now()
					t.ComputeMem(10_000)
					r.Note(t, start)
				}
			})
		}
	}
}

// WaitingStress parks every thread on a lock word that is never
// released, using the given waiting technique — the §4.1/§4.2 "price of
// waiting" experiments (Figures 3-5). The threads spin on a real shared
// line so global spinning exhibits its contention-scaled CPI.
func WaitingStress(threads int, pol machine.WaitPolicy, dur sim.Cycles) Definition {
	return func(r *Runner, f workload.LockFactory) {
		line := r.M.NewLine("held-forever")
		line.Init(1)
		for i := 0; i < threads; i++ {
			r.M.Spawn("waiter", func(t *machine.Thread) {
				t.SpinUntilLimit(line, func(v uint64) bool { return v == 0 }, pol, dur)
			})
		}
	}
}

// SleepingStress parks every thread on a futex that is never woken —
// the "sleeping" series of Figure 3.
func SleepingStress(threads int) Definition {
	return func(r *Runner, f workload.LockFactory) {
		line := r.M.NewLine("never")
		line.Init(1)
		w := r.M.NewFutexWord(line)
		for i := 0; i < threads; i++ {
			r.M.Spawn("sleeper", func(t *machine.Thread) {
				t.FutexWait(w, 1, 0)
			})
		}
	}
}
