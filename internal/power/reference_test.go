package power

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"lockin/internal/sim"
	"lockin/internal/topo"
)

// meterReadings is what a simulation reads from a meter.
type meterReadings interface {
	Energy() Energy
	InstantPower() Breakdown
	EffectiveSlowdown(ctx int) float64
}

// readings returns every reading of r, labelled, in a fixed order.
func readings(r meterReadings, contexts int) ([]string, []float64) {
	e, p := r.Energy(), r.InstantPower()
	names := []string{"Energy.Package", "Energy.Cores", "Energy.DRAM",
		"InstantPower.Total", "InstantPower.Package", "InstantPower.Cores", "InstantPower.DRAM"}
	vals := []float64{e.Package, e.Cores, e.DRAM, p.Total, p.Package, p.Cores, p.DRAM}
	for ctx := 0; ctx < contexts; ctx++ {
		names = append(names, fmt.Sprintf("EffectiveSlowdown(%d)", ctx))
		vals = append(vals, r.EffectiveSlowdown(ctx))
	}
	return names, vals
}

// TestMeterMatchesReference drives the incremental Meter and refMeter,
// the full walk it replaced, through the same seeded transitions and
// time steps, and requires every reading to agree bit for bit: a Meter
// that reorders or regroups its floating-point sums fails here even when
// the difference is in the last bit. EffectiveSlowdown, which the
// simulation side answers, is compared after every step, Energy and
// InstantPower every `every` steps. With every > 1 the transitions
// between two readings fill at least 8 batches, so the helper replays
// them and the simulation waits for it whenever maxQueued are queued.
func TestMeterMatchesReference(t *testing.T) {
	deep := DefaultConfig() // IdleDeep draws power, so no core is ever skipped
	deep.ActivityW[IdleDeep] = 0.12
	deep.DRAMActivityW[IdleDeep] = 0.01
	for _, tc := range []struct {
		name         string
		cfg          Config
		topo         topo.Topology
		steps, every int
	}{
		{"xeon", DefaultConfig(), topo.Xeon(), 4000, 1},
		{"corei7", DefaultConfig(), topo.CoreI7(), 4000, 1},
		{"4x4x4", DefaultConfig(), topo.Topology{Sockets: 4, CoresPerSocket: 4, ThreadsPerCore: 4}, 4000, 1},
		{"1x64x1", DefaultConfig(), topo.Topology{Sockets: 1, CoresPerSocket: 64, ThreadsPerCore: 1}, 4000, 1},
		{"xeon-idle-deep-draws", deep, topo.Xeon(), 4000, 1},
		{"xeon-replayed", DefaultConfig(), topo.Xeon(), 24000, 3000},
		{"1x64x1-replayed", DefaultConfig(), topo.Topology{Sockets: 1, CoresPerSocket: 64, ThreadsPerCore: 1}, 24000, 3000},
		{"xeon-idle-deep-draws-replayed", deep, topo.Xeon(), 24000, 3000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			k := sim.NewKernel(1)
			m, ref := NewMeter(k, tc.cfg, tc.topo), newRefMeter(k, tc.cfg, tc.topo)
			n := tc.topo.NumContexts()
			rng := rand.New(rand.NewSource(42))
			logged := 0 // transitions since the last reading
			// burst makes one to four changes at the current instant.
			burst := func() {
				for i := rng.Intn(4); i >= 0; i-- {
					ctx := rng.Intn(n)
					if rng.Intn(4) == 0 {
						v := VF(rng.Intn(2))
						if m.VFOf(ctx) != v {
							logged++
						}
						m.SetVF(ctx, v)
						ref.SetVF(ctx, v)
						continue
					}
					// Half the changes park a context in IdleDeep, so
					// cores keep leaving and rejoining the folds.
					a := IdleDeep
					if rng.Intn(2) == 0 {
						a = Activity(rng.Intn(int(numActivities)))
					}
					if m.Activity(ctx) != a {
						logged++
					}
					m.SetActivity(ctx, a)
					ref.SetActivity(ctx, a)
				}
			}
			for step := 1; step <= tc.steps; step++ {
				burst()
				// With an empty queue, Run moves the clock to its limit.
				k.Run(k.Now() + sim.Cycles(rng.Intn(1000)))
				burst()
				if step%tc.every != 0 {
					for ctx := 0; ctx < n; ctx++ {
						if got, want := m.EffectiveSlowdown(ctx), ref.EffectiveSlowdown(ctx); got != want {
							t.Fatalf("step %d: EffectiveSlowdown(%d) = %v, reference %v", step, ctx, got, want)
						}
					}
					continue
				}
				if tc.every > 1 && logged < 8*batchLen {
					t.Fatalf("step %d: %d transitions since the last reading, want at least 8 batches (%d)", step, logged, 8*batchLen)
				}
				logged = 0
				names, got := readings(m, n)
				_, want := readings(ref, n)
				for i := range got {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("step %d: %s = %v (%#x), reference %v (%#x)", step, names[i],
							got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
					}
				}
			}
		})
	}
}

// refMeter integrates power over virtual time for one machine. It is the
// full-walk Meter that the incremental one replaced, kept verbatim apart
// from its name and its constructor's: every recompute visits every core.
// TestMeterMatchesReference compares the two bit for bit.
type refMeter struct {
	k    *sim.Kernel
	cfg  Config
	topo topo.Topology
	ctxs []ctxState

	lastAt sim.Cycles
	// Accumulated energy in Watt-cycles (divide by Hz for Joules).
	accPkg, accCores, accDRAM float64
	// Current instantaneous powers, recomputed on state changes.
	curPkg, curCores, curDRAM float64
	// dirty marks cur* stale after a state change. The rebuild is deferred
	// until the powers are actually consumed — the next time-advancing
	// integrate or an instantaneous reading — so a burst of transitions at
	// one virtual instant (context switch: VF + activity; wake-up chains)
	// costs a single recompute instead of one per transition.
	dirty bool

	// socketActive is recompute's scratch buffer (one flag per socket),
	// kept on the meter so the per-transition hot path does not allocate.
	socketActive []bool

	// busy counts, per core, the contexts not in IdleDeep. When the
	// configuration draws exactly zero Watts for IdleDeep (skipDeep), a
	// core with busy == 0 contributes exactly 0.0 to every sum, and
	// adding 0.0 to a non-negative float is bit-exact — recompute skips
	// such cores without changing any accumulated value.
	busy     []int16
	skipDeep bool
}

// newRefMeter creates a meter with every context idle-deep at VF-max.
func newRefMeter(k *sim.Kernel, cfg Config, t topo.Topology) *refMeter {
	m := &refMeter{
		k: k, cfg: cfg, topo: t,
		ctxs:         make([]ctxState, t.NumContexts()),
		socketActive: make([]bool, t.Sockets),
		busy:         make([]int16, t.NumCores()),
		skipDeep:     cfg.ActivityW[IdleDeep] == 0 && cfg.DRAMActivityW[IdleDeep] == 0,
	}
	m.recompute()
	return m
}

// Config returns the meter's wattage constants.
func (m *refMeter) Config() Config { return m.cfg }

// Activity returns the current activity of a context.
func (m *refMeter) Activity(ctx int) Activity { return m.ctxs[ctx].act }

// VFOf returns the DVFS point requested by a context. The effective core
// point is the max across hyper-thread siblings, as on real hardware.
func (m *refMeter) VFOf(ctx int) VF { return m.ctxs[ctx].vf }

// SetActivity transitions a context to a new activity, integrating energy
// up to the current instant first.
func (m *refMeter) SetActivity(ctx int, a Activity) {
	old := m.ctxs[ctx].act
	if old == a {
		return
	}
	m.integrate()
	m.ctxs[ctx].act = a
	if (old == IdleDeep) != (a == IdleDeep) {
		if core := m.topo.CoreOf(ctx); a == IdleDeep {
			m.busy[core]--
		} else {
			m.busy[core]++
		}
	}
	m.dirty = true
}

// SetVF sets a context's requested DVFS point.
func (m *refMeter) SetVF(ctx int, v VF) {
	if m.ctxs[ctx].vf == v {
		return
	}
	m.integrate()
	m.ctxs[ctx].vf = v
	m.dirty = true
}

// coreVF returns the effective VF of a physical core: the highest setting
// among its hardware threads (hyper-thread siblings share a VF domain).
func (m *refMeter) coreVF(core int) VF {
	for ht := 0; ht < m.topo.ThreadsPerCore; ht++ {
		if m.ctxs[core+ht*m.topo.NumCores()].vf == VFMax {
			return VFMax
		}
	}
	return VFMin
}

// EffectiveSlowdown returns the instruction-latency multiplier currently
// applying to ctx (1.0 at VF-max). It accounts for sibling sharing: a
// context that requested VF-min still runs at VF-max speed if its sibling
// holds the core at VF-max.
func (m *refMeter) EffectiveSlowdown(ctx int) float64 {
	return m.cfg.Slowdown(m.coreVF(m.topo.CoreOf(ctx)))
}

func (m *refMeter) integrate() {
	now := m.k.Now()
	if now <= m.lastAt {
		m.lastAt = now
		return
	}
	// Every state change integrates before mutating, so between lastAt and
	// now the per-context state is exactly what it was at lastAt: a deferred
	// rebuild here yields the same rates (and the same summation order) as
	// an eager one at the instant of the change.
	if m.dirty {
		m.recompute()
		m.dirty = false
	}
	dt := float64(now - m.lastAt)
	m.accPkg += m.curPkg * dt
	m.accCores += m.curCores * dt
	m.accDRAM += m.curDRAM * dt
	m.lastAt = now
}

// recompute rebuilds the instantaneous power sums from per-context state.
func (m *refMeter) recompute() {
	nc := m.topo.NumCores()
	tpc := m.topo.ThreadsPerCore
	cores := 0.0
	dram := m.cfg.DRAMBackgroundW
	socketActive := m.socketActive
	for i := range socketActive {
		socketActive[i] = false
	}
	// Walk cores in index order (socket-major, matching the numbering) so
	// the floating-point summation order never changes.
	core := 0
	for s := 0; s < m.topo.Sockets; s++ {
		for end := core + m.topo.CoresPerSocket; core < end; core++ {
			if m.skipDeep && m.busy[core] == 0 {
				// Entirely idle-deep core: every term below is exactly
				// 0.0, so skipping it leaves the sums bit-identical.
				continue
			}
			scale := 1.0
			if m.coreVF(core) == VFMin {
				scale = m.cfg.VFMinScale
			}
			// The busiest hyper-thread pays full activity power, siblings a
			// fraction: the core's execution resources are shared.
			bestW, extraW := 0.0, 0.0
			for ht := 0; ht < tpc; ht++ {
				st := m.ctxs[core+ht*nc]
				w := m.cfg.ActivityW[st.act]
				if w > bestW {
					extraW += bestW
					bestW = w
				} else {
					extraW += w
				}
				dram += m.cfg.DRAMActivityW[st.act] * scale
				if !st.act.IsIdle() {
					socketActive[s] = true
				}
			}
			cores += (bestW + extraW*m.cfg.HTFraction) * scale
		}
	}
	pkg := cores
	for s := 0; s < m.topo.Sockets; s++ {
		pkg += m.cfg.PkgStaticW
		if socketActive[s] {
			scale := 1.0
			// Uncore scales with the highest VF among the socket's cores.
			allMin := true
			for c := s * m.topo.CoresPerSocket; c < (s+1)*m.topo.CoresPerSocket; c++ {
				if m.coreVF(c) == VFMax {
					allMin = false
					break
				}
			}
			if allMin {
				scale = m.cfg.VFMinScale
			}
			pkg += m.cfg.UncoreActiveW * scale
		}
	}
	m.curPkg, m.curCores, m.curDRAM = pkg, cores, dram
}

// Energy integrates up to now and returns the counters in Joules.
func (m *refMeter) Energy() Energy {
	m.integrate()
	hz := m.cfg.BaseFreqGHz * 1e9
	return Energy{
		Package: m.accPkg / hz,
		Cores:   m.accCores / hz,
		DRAM:    m.accDRAM / hz,
	}
}

// InstantPower returns the current power breakdown in Watts.
func (m *refMeter) InstantPower() Breakdown {
	if m.dirty {
		m.recompute()
		m.dirty = false
	}
	return Breakdown{
		Total:   m.curPkg + m.curDRAM,
		Package: m.curPkg,
		Cores:   m.curCores,
		DRAM:    m.curDRAM,
	}
}
