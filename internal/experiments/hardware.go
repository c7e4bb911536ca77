package experiments

import (
	"lockin/internal/core"
	"lockin/internal/machine"
	"lockin/internal/metrics"
	"lockin/internal/power"
	"lockin/internal/sim"
	"lockin/internal/sweep"
	"lockin/internal/systems"
	"lockin/internal/workload"
)

// runDef executes a systems.Definition on a machine with the given
// per-cell seed and returns the measurement.
func runDef(o Options, seed int64, d systems.Definition, f workload.LockFactory, dur sim.Cycles) systems.Result {
	return d.Run(machine.DefaultConfig(seed), f, o.Window(300_000), o.Window(dur))
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
					d := systems.CopyOnWriteList(n)
					mu := runDef(o, c.Seed, d, workload.FactoryFor(core.KindMutex), 20_000_000)
					sp := runDef(o, c.Seed, d, workload.FactoryFor(core.KindTTAS), 20_000_000)
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
						var p power.Breakdown
						if n == 0 {
							p = systems.IdlePower(mc, o.Window(2_000_000))
						} else {
							r := systems.MemoryStress(n, vf).Run(mc, workload.FactoryFor(core.KindMutex),
								o.Window(300_000), o.Window(2_000_000))
							p = r.Power()
						}
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
			g := sweep.NewGrid(o)
			for _, n := range threadSweep(o.Quick) {
				n := n
				g.Add(func(c sweep.Cell) []sweep.Row {
					r := runDef(o, c.Seed, systems.SleepingStress(n), workload.FactoryFor(core.KindMutex), 3_000_000)
					return []sweep.Row{{n, "sleeping", r.Power().Total, 0.0}}
				})
				for _, pol := range []machine.WaitPolicy{machine.WaitGlobal, machine.WaitLocal} {
					pol := pol
					g.Add(func(c sweep.Cell) []sweep.Row {
						d := systems.WaitingStress(n, pol, o.Window(3_300_000))
						rn := systems.NewRunner(machine.DefaultConfig(c.Seed), o.Window(300_000), o.Window(3_000_000))
						d(rn, workload.FactoryFor(core.KindMutex))
						r := rn.Finish()
						return []sweep.Row{{n, pol.String(), r.Power().Total, rn.M.CPI(pol.Activity())}}
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
			pols := []machine.WaitPolicy{machine.WaitGlobal, machine.WaitLocal, machine.WaitPause, machine.WaitMbar}
			g := sweep.NewGrid(o)
			for _, n := range threadSweep(o.Quick) {
				for _, pol := range pols {
					n, pol := n, pol
					g.Add(func(c sweep.Cell) []sweep.Row {
						d := systems.WaitingStress(n, pol, o.Window(3_300_000))
						rn := systems.NewRunner(machine.DefaultConfig(c.Seed), o.Window(300_000), o.Window(3_000_000))
						d(rn, workload.FactoryFor(core.KindMutex))
						r := rn.Finish()
						return []sweep.Row{{n, pol.String(), r.Power().Total, rn.M.CPI(pol.Activity())}}
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
			g := sweep.NewGrid(o)
			for _, n := range threadSweep(o.Quick) {
				n := n
				// VF-max: plain mbar spinning.
				g.Add(func(c sweep.Cell) []sweep.Row {
					d := systems.WaitingStress(n, machine.WaitMbar, o.Window(3_300_000))
					r := runDef(o, c.Seed, d, workload.FactoryFor(core.KindMutex), 3_000_000)
					return []sweep.Row{{n, "VF-max", r.Power().Total}}
				})
				// VF-min: the whole machine held at the low VF point.
				g.Add(func(c sweep.Cell) []sweep.Row {
					mc := machine.DefaultConfig(c.Seed)
					mc.Sched.IdleVF = power.VFMin
					rn := systems.NewRunner(mc, o.Window(300_000), o.Window(3_000_000))
					spawnVFSpinners(rn, n, power.VFMin)
					r := rn.Finish()
					return []sweep.Row{{n, "VF-min", r.Power().Total}}
				})
				// DVFS-normal: threads request VF-min, idle siblings keep
				// voting VF-max (the hardware behaviour of §4.2).
				g.Add(func(c sweep.Cell) []sweep.Row {
					rn := systems.NewRunner(machine.DefaultConfig(c.Seed), o.Window(300_000), o.Window(3_000_000))
					spawnVFSpinners(rn, n, power.VFMin)
					r := rn.Finish()
					return []sweep.Row{{n, "DVFS-normal", r.Power().Total}}
				})
				// monitor/mwait.
				g.Add(func(c sweep.Cell) []sweep.Row {
					d := systems.WaitingStress(n, machine.WaitMwait, o.Window(3_300_000))
					r := runDef(o, c.Seed, d, workload.FactoryFor(core.KindMutex), 3_000_000)
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

// spawnVFSpinners starts n spinners that lower their own VF point and
// spin with mbar until the window closes.
func spawnVFSpinners(rn *systems.Runner, n int, vf power.VF) {
	dur := sim.Cycles(3_300_000)
	for i := 0; i < n; i++ {
		rn.M.Spawn("spinner", func(t *machine.Thread) {
			t.SetVF(vf)
			t.SpinFor(dur, machine.WaitMbar)
		})
	}
}
