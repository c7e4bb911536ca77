package experiments

import (
	"lockin/internal/core"
	"lockin/internal/machine"
	"lockin/internal/metrics"
	"lockin/internal/power"
	"lockin/internal/sim"
	"lockin/internal/sweep"
	"lockin/internal/workload"
)

// stress runs body on a fresh Runner over mc and returns the
// measurement: the warm-up and the window that follows it, both
// scaled by o.Window, are those of the Figures 1-5 stress tests.
func stress(o Options, mc machine.Config, warmup, dur sim.Cycles, body func(*workload.Runner)) workload.Result {
	r := workload.NewRunner(mc, o.Window(warmup), o.Window(dur))
	body(r)
	return r.Finish()
}

func threadSweep(quick bool) []int {
	if quick {
		return []int{1, 10, 20, 40}
	}
	return []int{1, 5, 10, 15, 20, 25, 30, 35, 40}
}

func init() {
	register(Experiment{
		ID:    "fig1",
		Title: "CopyOnWriteArrayList: power and energy efficiency, mutex vs spinlock",
		Paper: "spinlock: up to ≈1.5x the power of mutex, ≈2x throughput, ≈1.25x TPP at 20 threads",
		Grid: func(o Options) []*metrics.Table {
			t := metrics.NewTable("Figure 1 — CopyOnWriteArrayList stress",
				"threads", "lock", "power(W)", "thr(Kops/s)", "TPP(Kops/J)", "power vs mutex", "TPP vs mutex")
			g := sweep.NewGrid(o)
			for _, n := range []int{10, 20} {
				n := n
				// One cell per thread count: the spinlock row is
				// normalized to the mutex run of the same cell.
				g.Add(func(c sweep.Cell) []sweep.Row {
					cow := func(k core.Kind) workload.Result {
						return stress(o, machine.DefaultConfig(c.Seed), 300_000, 20_000_000,
							copyOnWriteList(n, workload.FactoryFor(k)))
					}
					mu, sp := cow(core.KindMutex), cow(core.KindTTAS)
					return []sweep.Row{
						{n, "mutex", mu.Power().Total, mu.Throughput() / 1e3, mu.TPP() / 1e3, 1.0, 1.0},
						{n, "spinlock", sp.Power().Total, sp.Throughput() / 1e3, sp.TPP() / 1e3,
							sp.Power().Total / mu.Power().Total, sp.TPP() / mu.TPP()},
					}
				})
			}
			g.Into(t)
			return []*metrics.Table{t}
		},
	})

	register(Experiment{
		ID:    "fig2",
		Title: "Power-consumption breakdown vs active hyper-threads and VF setting",
		Paper: "idle 55.5 W; max ≈206 W; first core +13.6 W (VF-max) / +6.4 W (VF-min); DRAM 25→74 W",
		Grid: func(o Options) []*metrics.Table {
			var out []*metrics.Table
			for _, vf := range []power.VF{power.VFMin, power.VFMax} {
				vf := vf
				t := metrics.NewTable("Figure 2 — memory-stress power breakdown ("+vf.String()+")",
					"hyper-threads", "total(W)", "package(W)", "cores(W)", "DRAM(W)")
				g := sweep.NewGrid(o)
				for _, n := range append([]int{0}, threadSweep(o.Quick)...) {
					n := n
					g.Add(func(c sweep.Cell) []sweep.Row {
						// In the VF-min sweep, the whole machine sits at the
						// low point: idle contexts vote VF-min as well, as
						// when the governor pins the platform frequency.
						mc := machine.DefaultConfig(c.Seed)
						if vf == power.VFMin {
							mc.Sched.IdleVF = power.VFMin
						}
						// The idle baseline runs no thread and needs no
						// warm-up.
						warmup := sim.Cycles(300_000)
						if n == 0 {
							warmup = 0
						}
						p := stress(o, mc, warmup, 2_000_000, memoryStress(n, vf)).Power()
						return []sweep.Row{{n, p.Total, p.Package, p.Cores, p.DRAM}}
					})
				}
				g.Into(t)
				out = append(out, t)
			}
			return out
		},
	})

	register(Experiment{
		ID:    "fig3",
		Title: "Power and CPI of waiting: sleeping vs global vs local spinning",
		Paper: "sleeping ≈ idle power; local spinning up to 3% above global; global CPI ≈530 at 40 threads",
		Grid: func(o Options) []*metrics.Table {
			t := metrics.NewTable("Figure 3 — the price of waiting",
				"threads", "technique", "power(W)", "CPI")
			limit := o.Window(3_300_000) // the waiters outlast the window
			g := sweep.NewGrid(o)
			for _, n := range threadSweep(o.Quick) {
				n := n
				g.Add(func(c sweep.Cell) []sweep.Row {
					r := stress(o, machine.DefaultConfig(c.Seed), 300_000, 3_000_000, sleepingStress(n))
					return []sweep.Row{{n, "sleeping", r.Power().Total, 0.0}}
				})
				for _, pol := range []machine.WaitPolicy{machine.WaitGlobal, machine.WaitLocal} {
					pol := pol
					g.Add(func(c sweep.Cell) []sweep.Row {
						r := stress(o, machine.DefaultConfig(c.Seed), 300_000, 3_000_000,
							waitingStress(n, pol, limit))
						return []sweep.Row{{n, pol.String(), r.Power().Total, r.Machine.CPI(pol.Activity())}}
					})
				}
			}
			g.Into(t)
			return []*metrics.Table{t}
		},
	})

	register(Experiment{
		ID:    "fig4",
		Title: "Power and CPI of spin pausing techniques",
		Paper: "pause increases power up to 4%; mbar undercuts both pause (−7%) and global spinning",
		Grid: func(o Options) []*metrics.Table {
			t := metrics.NewTable("Figure 4 — pausing techniques",
				"threads", "technique", "power(W)", "CPI")
			limit := o.Window(3_300_000) // the waiters outlast the window
			pols := []machine.WaitPolicy{machine.WaitGlobal, machine.WaitLocal, machine.WaitPause, machine.WaitMbar}
			g := sweep.NewGrid(o)
			for _, n := range threadSweep(o.Quick) {
				for _, pol := range pols {
					n, pol := n, pol
					g.Add(func(c sweep.Cell) []sweep.Row {
						r := stress(o, machine.DefaultConfig(c.Seed), 300_000, 3_000_000,
							waitingStress(n, pol, limit))
						return []sweep.Row{{n, pol.String(), r.Power().Total, r.Machine.CPI(pol.Activity())}}
					})
				}
			}
			g.Into(t)
			return []*metrics.Table{t}
		},
	})

	register(Experiment{
		ID:    "fig5",
		Title: "Busy-wait power with DVFS and monitor/mwait",
		Paper: "VF-min up to 1.7x below VF-max; DVFS-normal drops only once both hyper-threads lower VF; mwait up to 1.5x below spinning",
		Grid: func(o Options) []*metrics.Table {
			t := metrics.NewTable("Figure 5 — DVFS and monitor/mwait",
				"threads", "series", "power(W)")
			limit := o.Window(3_300_000) // the waiters outlast the window
			g := sweep.NewGrid(o)
			for _, n := range threadSweep(o.Quick) {
				n := n
				// VF-max: plain mbar spinning.
				g.Add(func(c sweep.Cell) []sweep.Row {
					r := stress(o, machine.DefaultConfig(c.Seed), 300_000, 3_000_000,
						waitingStress(n, machine.WaitMbar, limit))
					return []sweep.Row{{n, "VF-max", r.Power().Total}}
				})
				// VF-min: the whole machine held at the low VF point.
				g.Add(func(c sweep.Cell) []sweep.Row {
					mc := machine.DefaultConfig(c.Seed)
					mc.Sched.IdleVF = power.VFMin
					r := stress(o, mc, 300_000, 3_000_000, vfSpinners(n, power.VFMin, limit))
					return []sweep.Row{{n, "VF-min", r.Power().Total}}
				})
				// DVFS-normal: threads request VF-min, idle siblings keep
				// voting VF-max (the hardware behaviour of §4.2).
				g.Add(func(c sweep.Cell) []sweep.Row {
					r := stress(o, machine.DefaultConfig(c.Seed), 300_000, 3_000_000,
						vfSpinners(n, power.VFMin, limit))
					return []sweep.Row{{n, "DVFS-normal", r.Power().Total}}
				})
				// monitor/mwait.
				g.Add(func(c sweep.Cell) []sweep.Row {
					r := stress(o, machine.DefaultConfig(c.Seed), 300_000, 3_000_000,
						waitingStress(n, machine.WaitMwait, limit))
					return []sweep.Row{{n, "monitor/mwait", r.Power().Total}}
				})
			}
			g.Into(t)
			return []*metrics.Table{t}
		},
	})

	register(Experiment{
		ID:    "fig6",
		Title: "futex wake-up call and turnaround latency vs sleep→wake delay",
		Paper: "turnaround ≥7000 cycles; explodes past ≈600K-cycle delays (deep idle); short delays inflate the wake call (bucket lock)",
		Grid:  runFig6,
	})

	register(Experiment{
		ID:    "tbl_sleep",
		Title: "§4.4 — power vs period between futex wake-ups",
		Paper: "1024: 72.0 W, 2048: 69.2 W, 4096: 68.8 W, 8192: 68.0 W (no benefit below the sleep latency)",
		Grid:  runSleepPeriodTable,
	})

	register(Experiment{
		ID:    "fig7",
		Title: "Power and communication throughput: sleep vs spin vs spin-then-sleep(T)",
		Paper: "larger T → lower power and higher handover throughput; ss-1000 nears spin throughput at sleep-like power",
		Grid:  runFig7,
	})
}

// copyOnWriteList models the java.util.concurrent.CopyOnWriteArrayList
// stress test of Figure 1: mutators take the list's lock, built by f,
// and copy the backing array (memory-heavy critical section); the
// occasional readers are lock-free. The waiting strategy of the lock
// (sleeping vs busy waiting) dominates both power and throughput.
func copyOnWriteList(threads int, f workload.LockFactory) func(*workload.Runner) {
	return func(r *workload.Runner) {
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

// memoryStress is the §3.1 maximum-power benchmark: each thread streams
// over large chunks of memory from its local node. Figure 2 charts its
// power breakdown against active hyper-thread count and
// voltage-frequency setting; with no threads it is the idle machine.
func memoryStress(threads int, vf power.VF) func(*workload.Runner) {
	return func(r *workload.Runner) {
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

// waitingStress parks every thread on a lock word that is never
// released, spinning for at most limit cycles with the given waiting
// technique — the §4.1/§4.2 "price of waiting" experiments (Figures
// 3-5). The threads spin on a real shared line so global spinning
// exhibits its contention-scaled CPI.
func waitingStress(threads int, pol machine.WaitPolicy, limit sim.Cycles) func(*workload.Runner) {
	return func(r *workload.Runner) {
		line := r.M.NewLine("held-forever")
		line.Init(1)
		for i := 0; i < threads; i++ {
			r.M.Spawn("waiter", func(t *machine.Thread) {
				t.SpinUntilLimit(line, func(v uint64) bool { return v == 0 }, pol, limit)
			})
		}
	}
}

// sleepingStress parks every thread on a futex that is never woken —
// the "sleeping" series of Figure 3.
func sleepingStress(threads int) func(*workload.Runner) {
	return func(r *workload.Runner) {
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

// vfSpinners starts n spinners that lower their own VF point and spin
// with mbar for limit cycles, past the window's end.
func vfSpinners(n int, vf power.VF, limit sim.Cycles) func(*workload.Runner) {
	return func(r *workload.Runner) {
		for i := 0; i < n; i++ {
			r.M.Spawn("spinner", func(t *machine.Thread) {
				t.SetVF(vf)
				t.SpinFor(limit, machine.WaitMbar)
			})
		}
	}
}
