// Package power models processor and DRAM power and exposes RAPL-style
// energy counters for the simulated machine.
//
// The model is an activity-based integrator: every hardware context is, at
// any virtual instant, in exactly one Activity (computing, spinning with a
// given pausing technique, mwait-ing, or idle at some C-state depth) and
// at one voltage-frequency point. The meter integrates Watts over virtual
// cycles on every state change and attributes energy to the package,
// cores and DRAM domains, mirroring the Intel RAPL counters the paper
// measures with.
//
// All wattage constants are calibrated against the paper's own Xeon
// measurements (§3, §4): 55.5 W idle, ≈206 W peak, 13.6 W first-core
// activation at VF-max (8 W uncore + core + DRAM), ≈5.6 W per subsequent
// core, pause +4 % over plain local spinning, mbar −7 % under pause,
// mwait ≈1.5× below spinning, VF-min spinning ≈1.7× below VF-max.
package power

import (
	"fmt"
	"math/bits"

	"lockin/internal/sim"
	"lockin/internal/topo"
)

// Activity classifies what a hardware context is doing, which determines
// its dynamic power draw.
type Activity int

const (
	// IdleDeep is a deep C-state (C6): ≈0 W, slow exit.
	IdleDeep Activity = iota
	// IdleShallow is a shallow C-state (C1): cheap to exit.
	IdleShallow
	// Compute is ordinary instruction execution (CPI ≈ 1).
	Compute
	// MemStress is memory-bound execution; it additionally drives DRAM power.
	MemStress
	// SpinLocal is a load-based spin loop without pausing (CPI ≈ 0.33).
	SpinLocal
	// SpinPause is a spin loop with the x86 pause instruction (CPI 4.6).
	SpinPause
	// SpinMbar is a spin loop paced by a memory barrier (the paper's
	// recommended pausing technique).
	SpinMbar
	// SpinGlobal is atomic polling (test-and-set style global spinning).
	SpinGlobal
	// Mwait is hardware sleeping via monitor/mwait: the context is held
	// but the core is in an optimized state.
	Mwait

	numActivities
)

var activityNames = [...]string{
	"idle-deep", "idle-shallow", "compute", "mem-stress",
	"spin-local", "spin-pause", "spin-mbar", "spin-global", "mwait",
}

func (a Activity) String() string {
	if a < 0 || int(a) >= len(activityNames) {
		return fmt.Sprintf("Activity(%d)", int(a))
	}
	return activityNames[a]
}

// IsIdle reports whether the activity leaves the context available to the
// power-management hardware.
func (a Activity) IsIdle() bool { return a == IdleDeep || a == IdleShallow }

// IsSpin reports whether the activity is some form of busy waiting.
func (a Activity) IsSpin() bool {
	return a == SpinLocal || a == SpinPause || a == SpinMbar || a == SpinGlobal
}

// VF is a voltage-frequency operating point.
type VF int

const (
	// VFMax is the nominal maximum frequency (2.8 GHz on the Xeon).
	VFMax VF = iota
	// VFMin is the lowest DVFS point (1.2 GHz on the Xeon).
	VFMin
)

func (v VF) String() string {
	if v == VFMin {
		return "VF-min"
	}
	return "VF-max"
}

// Config holds the wattage constants of the model. Watts are average
// powers; energies are integrated over virtual cycles and converted to
// Joules with BaseFreqGHz.
type Config struct {
	BaseFreqGHz float64 // reference clock for cycle→second conversion (VF-max)
	MinFreqGHz  float64 // clock at VF-min (instruction slowdown)

	PkgStaticW      float64 // per-socket static package power (caches, fabric)
	DRAMBackgroundW float64 // DRAM background power, whole machine
	UncoreActiveW   float64 // per-socket extra power when ≥1 core is active (VF-max)

	// ActivityW is per-context dynamic power at VF-max for the first
	// hardware thread of a core; the second thread adds HTFraction of its
	// own activity's power.
	ActivityW  [numActivities]float64
	HTFraction float64

	// DRAMActivityW is per-context DRAM power contribution at VF-max.
	DRAMActivityW [numActivities]float64

	// VFMinScale scales dynamic core and uncore power at VF-min.
	VFMinScale float64
}

// DefaultConfig returns the Xeon calibration.
func DefaultConfig() Config {
	c := Config{
		BaseFreqGHz:     2.8,
		MinFreqGHz:      1.2,
		PkgStaticW:      15.25, // ×2 sockets = 30.5; +25 DRAM = 55.5 idle
		DRAMBackgroundW: 25.0,
		UncoreActiveW:   8.0,
		HTFraction:      0.06,
		VFMinScale:      0.50,
	}
	c.ActivityW = [numActivities]float64{
		IdleDeep:    0.0,
		IdleShallow: 0.35,
		Compute:     4.0,
		MemStress:   4.2,
		SpinLocal:   3.45,
		SpinPause:   3.59, // +4 % over SpinLocal
		SpinMbar:    3.30, // −8 % under SpinPause
		SpinGlobal:  3.35, // slightly below plain local spinning (paper Fig 3)
		Mwait:       1.15, // busy-wait power ÷ ≈1.5 incl. idle benefit
	}
	c.DRAMActivityW = [numActivities]float64{
		Compute:    0.15,
		MemStress:  1.20, // 40 contexts × 1.2 ≈ the 25→74 W DRAM swing
		SpinLocal:  0.02,
		SpinPause:  0.02,
		SpinMbar:   0.02,
		SpinGlobal: 0.05,
	}
	return c
}

// Slowdown returns the instruction-latency multiplier of a VF point
// relative to VF-max.
func (c Config) Slowdown(v VF) float64 {
	if v == VFMin {
		return c.BaseFreqGHz / c.MinFreqGHz
	}
	return 1.0
}

// Energy is a snapshot of the RAPL-style counters, in Joules.
type Energy struct {
	Package float64 // includes Cores
	Cores   float64
	DRAM    float64
}

// Total returns package + DRAM energy (the paper's "total").
func (e Energy) Total() float64 { return e.Package + e.DRAM }

// Sub returns e - o component-wise.
func (e Energy) Sub(o Energy) Energy {
	return Energy{Package: e.Package - o.Package, Cores: e.Cores - o.Cores, DRAM: e.DRAM - o.DRAM}
}

// Power converts an energy delta over d cycles into average Watts using
// the reference frequency.
func (e Energy) Power(d sim.Cycles, baseGHz float64) Breakdown {
	if d == 0 {
		return Breakdown{}
	}
	sec := float64(d) / (baseGHz * 1e9)
	return Breakdown{
		Package: e.Package / sec,
		Cores:   e.Cores / sec,
		DRAM:    e.DRAM / sec,
		Total:   e.Total() / sec,
	}
}

// Breakdown is an average-power decomposition in Watts.
type Breakdown struct {
	Total   float64
	Package float64
	Cores   float64
	DRAM    float64
}

func (b Breakdown) String() string {
	return fmt.Sprintf("total %.1f W (package %.1f, cores %.1f, DRAM %.1f)",
		b.Total, b.Package, b.Cores, b.DRAM)
}

type ctxState struct {
	act Activity
	vf  VF
}

// coreTerms is one physical core's cached share of the power sums, as of
// its last refresh, plus the count that sets its VF point.
type coreTerms struct {
	watts  float64 // (bestW + extraW×HTFraction) × VF scale
	vfMax  int     // hyper-threads requesting VF-max: the core runs at VF-max while > 0
	active bool    // some hyper-thread is not idle, so the socket's uncore is on
}

// socketCounts holds what one socket's uncore term depends on.
type socketCounts struct {
	active int // cores with a non-idle hyper-thread
	vfMax  int // cores at VF-max
}

// sums is a point in the cores and DRAM folds.
type sums struct{ cores, dram float64 }

// Meter integrates power over virtual time for one machine.
//
// Its readings are bit-identical to a full walk over every context
// (determinism invariant 6 in internal/sim/DESIGN.md): the cores and DRAM
// sums are left folds in core-index order, with the DRAM terms one per
// context, core-major, and every mutation integrates first. The meter
// caches each core's terms and the folds before each core, so a state
// change refreshes only the cores it touched and resumes the folds from
// the first of them (see recompute). reference_test.go keeps the full
// walk and checks every reading against it bit for bit.
type Meter struct {
	k      *sim.Kernel
	cfg    Config
	topo   topo.Topology
	ctxs   []ctxState
	coreOf []int // ctx → physical core

	lastAt sim.Cycles
	// Accumulated energy in Watt-cycles (divide by Hz for Joules).
	accPkg, accCores, accDRAM float64
	// Current instantaneous powers, recomputed on state changes.
	curPkg, curCores, curDRAM float64

	// stale marks the cores whose cached terms a state change has made
	// out of date. The refresh is deferred until the powers are actually
	// consumed — the next time-advancing integrate or an instantaneous
	// reading — so a burst of transitions at one virtual instant (context
	// switch: VF + activity; wake-up chains) costs a single recompute
	// instead of one per transition.
	stale uint64

	// busy marks the cores with a context not in IdleDeep, as of their
	// last refresh. When the configuration draws exactly zero Watts for
	// IdleDeep (skipDeep), every term of a core outside busy is exactly
	// +0.0, and adding +0.0 to a non-negative sum is bit-exact, so the
	// folds skip such cores and stop after the highest busy one.
	busy     uint64
	skipDeep bool

	cores   []coreTerms
	dramW   []float64 // per context, core-major: DRAMActivityW × the core's VF scale
	before  []sums    // before[c]: the folds over cores < c (NumCores()+1 entries)
	top     int       // the folds cover cores < top, so before[top] holds the totals
	sockets []socketCounts
}

// NewMeter creates a meter with every context idle-deep at VF-max. Like
// machine.New, it panics on a topology that fails Validate: the stale and
// busy sets hold one bit per core.
func NewMeter(k *sim.Kernel, cfg Config, t topo.Topology) *Meter {
	if err := t.Validate(); err != nil {
		panic(err)
	}
	nc := t.NumCores()
	m := &Meter{
		k: k, cfg: cfg, topo: t,
		ctxs:     make([]ctxState, t.NumContexts()),
		coreOf:   make([]int, t.NumContexts()),
		stale:    1<<nc - 1, // every core; with 64 cores, 1<<64 is 0 and this is all ones
		skipDeep: cfg.ActivityW[IdleDeep] == 0 && cfg.DRAMActivityW[IdleDeep] == 0,
		cores:    make([]coreTerms, nc),
		dramW:    make([]float64, t.NumContexts()),
		before:   make([]sums, nc+1),
		sockets:  make([]socketCounts, t.Sockets),
	}
	for ctx := range m.coreOf {
		m.coreOf[ctx] = t.CoreOf(ctx)
	}
	for c := range m.cores {
		m.cores[c].vfMax = t.ThreadsPerCore
	}
	for s := range m.sockets {
		m.sockets[s].vfMax = t.CoresPerSocket
	}
	m.before[0].dram = cfg.DRAMBackgroundW
	m.recompute()
	return m
}

// Config returns the meter's wattage constants.
func (m *Meter) Config() Config { return m.cfg }

// Activity returns the current activity of a context.
func (m *Meter) Activity(ctx int) Activity { return m.ctxs[ctx].act }

// VFOf returns the DVFS point requested by a context. The effective core
// point is the max across hyper-thread siblings, as on real hardware.
func (m *Meter) VFOf(ctx int) VF { return m.ctxs[ctx].vf }

// SetActivity transitions a context to a new activity, integrating energy
// up to the current instant first.
func (m *Meter) SetActivity(ctx int, a Activity) {
	if m.ctxs[ctx].act == a {
		return
	}
	m.integrate()
	m.ctxs[ctx].act = a
	m.stale |= 1 << m.coreOf[ctx]
}

// SetVF sets a context's requested DVFS point.
func (m *Meter) SetVF(ctx int, v VF) {
	old := m.ctxs[ctx].vf
	if old == v {
		return
	}
	m.integrate()
	m.ctxs[ctx].vf = v
	c := m.coreOf[ctx]
	ct := &m.cores[c]
	wasMax := ct.vfMax > 0
	if old == VFMax {
		ct.vfMax--
	}
	if v == VFMax {
		ct.vfMax++
	}
	// Hyper-thread siblings share a VF domain: the core's terms change
	// only when its highest requested point does.
	if isMax := ct.vfMax > 0; isMax != wasMax {
		sk := &m.sockets[c/m.topo.CoresPerSocket]
		if isMax {
			sk.vfMax++
		} else {
			sk.vfMax--
		}
		m.stale |= 1 << c
	}
}

// EffectiveSlowdown returns the instruction-latency multiplier currently
// applying to ctx (1.0 at VF-max). It accounts for sibling sharing: a
// context that requested VF-min still runs at VF-max speed if its sibling
// holds the core at VF-max.
func (m *Meter) EffectiveSlowdown(ctx int) float64 {
	vf := VFMin
	if m.cores[m.coreOf[ctx]].vfMax > 0 {
		vf = VFMax
	}
	return m.cfg.Slowdown(vf)
}

func (m *Meter) integrate() {
	now := m.k.Now()
	if now <= m.lastAt {
		m.lastAt = now
		return
	}
	// Every state change integrates before mutating, so between lastAt and
	// now the per-context state is exactly what it was at lastAt: a deferred
	// rebuild here yields the same rates (and the same summation order) as
	// an eager one at the instant of the change.
	if m.stale != 0 {
		m.recompute()
	}
	dt := float64(now - m.lastAt)
	m.accPkg += m.curPkg * dt
	m.accCores += m.curCores * dt
	m.accDRAM += m.curDRAM * dt
	m.lastAt = now
}

// recompute refreshes the stale cores and rebuilds the instantaneous
// power sums.
//
// Floating-point addition is not associative, so the folds must add the
// same terms in the same order as a full walk: cores in index order
// (socket-major, matching the numbering), each core's DRAM terms one at a
// time in hyper-thread order. Skipping a term is allowed only when it is
// exactly +0.0, and the only reuse allowed is resuming from before[c],
// which holds exactly what a full walk holds on reaching core c. Delta
// updates, per-core partial sums, trees and compensated sums would all
// change output bits; reference_test.go catches them.
func (m *Meter) recompute() {
	first := bits.TrailingZeros64(m.stale)
	for st := m.stale; st != 0; st &= st - 1 {
		m.refresh(bits.TrailingZeros64(st))
	}
	m.stale = 0

	end := len(m.cores)
	if m.skipDeep {
		end = bits.Len64(m.busy)
	}
	tpc := m.topo.ThreadsPerCore
	// No core from top on is folded, so the folds before any of them are
	// before[top]. When end < c, the cores from end to c are idle-deep and
	// unchanged, so before[c] is already the total.
	c := min(first, m.top)
	s := m.before[c]
	for ; c < end; c++ {
		m.before[c] = s
		if m.skipDeep && m.busy&(1<<c) == 0 {
			continue
		}
		s.cores += m.cores[c].watts
		for _, w := range m.dramW[c*tpc : c*tpc+tpc] {
			s.dram += w
		}
	}
	m.before[end] = s
	m.top = end

	pkg := s.cores
	for _, sk := range m.sockets {
		pkg += m.cfg.PkgStaticW
		if sk.active > 0 {
			// Uncore scales with the highest VF among the socket's cores.
			scale := 1.0
			if sk.vfMax == 0 {
				scale = m.cfg.VFMinScale
			}
			pkg += m.cfg.UncoreActiveW * scale
		}
	}
	m.curPkg, m.curCores, m.curDRAM = pkg, s.cores, s.dram
}

// refresh rebuilds core c's cached terms from its contexts' state.
func (m *Meter) refresh(c int) {
	ct := &m.cores[c]
	scale := 1.0
	if ct.vfMax == 0 {
		scale = m.cfg.VFMinScale
	}
	// The busiest hyper-thread pays full activity power, siblings a
	// fraction: the core's execution resources are shared.
	bestW, extraW := 0.0, 0.0
	active, busy := false, false
	tpc := m.topo.ThreadsPerCore
	dram := m.dramW[c*tpc : c*tpc+tpc]
	for ht := range dram {
		act := m.ctxs[c+ht*len(m.cores)].act
		w := m.cfg.ActivityW[act]
		if w > bestW {
			extraW += bestW
			bestW = w
		} else {
			extraW += w
		}
		dram[ht] = m.cfg.DRAMActivityW[act] * scale
		active = active || !act.IsIdle()
		busy = busy || act != IdleDeep
	}
	ct.watts = (bestW + extraW*m.cfg.HTFraction) * scale
	if active != ct.active {
		ct.active = active
		sk := &m.sockets[c/m.topo.CoresPerSocket]
		if active {
			sk.active++
		} else {
			sk.active--
		}
	}
	if busy {
		m.busy |= 1 << c
	} else {
		m.busy &^= 1 << c
	}
}

// Energy integrates up to now and returns the counters in Joules.
func (m *Meter) Energy() Energy {
	m.integrate()
	hz := m.cfg.BaseFreqGHz * 1e9
	return Energy{
		Package: m.accPkg / hz,
		Cores:   m.accCores / hz,
		DRAM:    m.accDRAM / hz,
	}
}

// InstantPower returns the current power breakdown in Watts.
func (m *Meter) InstantPower() Breakdown {
	if m.stale != 0 {
		m.recompute()
	}
	return Breakdown{
		Total:   m.curPkg + m.curDRAM,
		Package: m.curPkg,
		Cores:   m.curCores,
		DRAM:    m.curDRAM,
	}
}
