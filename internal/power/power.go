// Package power models processor and DRAM power and exposes RAPL-style
// energy counters for the simulated machine.
//
// The model is an activity-based integrator: every hardware context is, at
// any virtual instant, in exactly one Activity (computing, spinning with a
// given pausing technique, mwait-ing, or idle at some C-state depth) and
// at one voltage-frequency point. The meter integrates Watts over virtual
// cycles on every state change and attributes energy to the package,
// cores and DRAM domains, mirroring the Intel RAPL counters the paper
// measures with. The simulation only logs each state change with its
// virtual time; a helper goroutine folds the log in order beside it, and
// the energy readings wait for the fold (see Meter).
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
	"sync"

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

// record is one logged transition: at virtual time at, context ctx's
// activity (vf false) or VF point (vf true) became val. It takes 16
// bytes.
type record struct {
	at  sim.Cycles
	ctx uint16
	vf  bool
	val uint8
}

// A batch holds batchLen records. At most maxQueued full batches of a
// meter wait for its helper, the one it is replaying included; a
// transition that fills one more waits until the helper has replayed
// one. Up to maxSpare replayed batches are kept for reuse.
const (
	batchLen  = 1024
	maxQueued = 4
	maxSpare  = 16
)

type batch [batchLen]record

// spare holds replayed batches for any meter to fill next, so the cells
// of a sweep reuse one another's batches instead of each allocating its
// own (a pool per meter read spin-storm's peak RSS +5%). It is not a
// sync.Pool because under the race detector a Pool drops a quarter of
// what it is given, and the zero-allocation tests run there too.
var spare struct {
	sync.Mutex
	batches []*batch
}

// takeBatch returns a spare batch, or a new one if none is spare.
func takeBatch() *batch {
	spare.Lock()
	defer spare.Unlock()
	k := len(spare.batches)
	if k == 0 {
		return new(batch)
	}
	b := spare.batches[k-1]
	spare.batches = spare.batches[:k-1]
	return b
}

// giveBatch keeps a replayed batch for reuse, unless maxSpare are kept.
func giveBatch(b *batch) {
	spare.Lock()
	defer spare.Unlock()
	if len(spare.batches) < maxSpare {
		spare.batches = append(spare.batches, b)
	}
}

// Meter integrates power over virtual time for one machine.
//
// It has two sides. The simulation side holds what the simulation reads
// at once: each context's activity and VF point, and each core's count
// of hyper-threads at VF-max, which EffectiveSlowdown reads on every
// chunk a thread runs. A transition that changes them also appends a
// record, with the instant it happened, to a fixed-size batch. The
// integrator owns everything else, and replays the records in order:
// for each one, integrate up to its time, then apply the change. A full
// batch goes to a helper goroutine, which Go runs on an idle CPU when
// there is one and interleaves with the simulation when there is none;
// the helper exits when no batch is queued. Energy and InstantPower are
// the only readings of the integrator, and the only points where the
// simulation waits for the helper: they wait until every full batch is
// replayed, replay the partial one on the caller, and read.
//
// Its readings are bit-identical to a full walk over every context
// (determinism invariant 6 in internal/sim/DESIGN.md): the cores and DRAM
// sums are left folds in core-index order, with the DRAM terms one per
// context, core-major, and every mutation integrates first. The
// integrator caches each core's terms and the folds before each core, so
// a state change refreshes only the cores it touched and resumes the
// folds from the first of them (see recompute). Replay keeps both the
// order of the mutations and the instant each one integrates to, and
// only one goroutine at a time replays, so the bits do not depend on
// which goroutine folds a record or when. reference_test.go keeps the
// full walk and checks every reading against it bit for bit.
type Meter struct {
	// The simulation side.
	k      *sim.Kernel
	ctxs   []ctxState
	coreOf []int  // ctx → physical core
	vfMax  []int  // per core: hyper-threads requesting VF-max
	log    *batch // the batch being filled
	n      int    // records in log

	// The handoff. mu guards the queue; the helper signals replayed
	// after each batch. A helper runs while queued > 0: the handoff that
	// queues the first batch starts it, and it exits when it has
	// replayed the last.
	mu       sync.Mutex
	replayed sync.Cond
	queue    [maxQueued]*batch // a ring of full batches, the oldest at head
	head     int
	queued   int // batches handed off and not yet replayed
	// drainFn is m.drain, bound once: a go statement of a func value
	// allocates nothing when the runtime reuses an exited goroutine.
	drainFn func()

	// in belongs to the helper while a batch is queued, and to the
	// simulation otherwise.
	in  *integrator
	cfg Config
	// slowMin is cfg.Slowdown(VFMin), which EffectiveSlowdown returns
	// on every chunk a thread runs at VF-min: kept here so that read
	// does not copy cfg.
	slowMin float64
}

// integrator folds the logged transitions into the energy counters.
type integrator struct {
	cfg    Config
	topo   topo.Topology
	ctxs   []ctxState // as of the last record replayed
	coreOf []int

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
	coreOf := make([]int, t.NumContexts())
	for ctx := range coreOf {
		coreOf[ctx] = t.CoreOf(ctx)
	}
	in := &integrator{
		cfg: cfg, topo: t,
		ctxs:     make([]ctxState, t.NumContexts()),
		coreOf:   coreOf,
		stale:    1<<nc - 1, // every core; with 64 cores, 1<<64 is 0 and this is all ones
		skipDeep: cfg.ActivityW[IdleDeep] == 0 && cfg.DRAMActivityW[IdleDeep] == 0,
		cores:    make([]coreTerms, nc),
		dramW:    make([]float64, t.NumContexts()),
		before:   make([]sums, nc+1),
		sockets:  make([]socketCounts, t.Sockets),
	}
	for c := range in.cores {
		in.cores[c].vfMax = t.ThreadsPerCore
	}
	for s := range in.sockets {
		in.sockets[s].vfMax = t.CoresPerSocket
	}
	in.before[0].dram = cfg.DRAMBackgroundW
	in.recompute()
	m := &Meter{
		k:       k,
		ctxs:    make([]ctxState, t.NumContexts()),
		coreOf:  coreOf,
		vfMax:   make([]int, nc),
		log:     takeBatch(),
		in:      in,
		cfg:     cfg,
		slowMin: cfg.Slowdown(VFMin),
	}
	for c := range m.vfMax {
		m.vfMax[c] = t.ThreadsPerCore
	}
	m.replayed.L = &m.mu
	m.drainFn = m.drain
	return m
}

// Config returns the meter's wattage constants.
func (m *Meter) Config() Config { return m.cfg }

// Activity returns the current activity of a context.
func (m *Meter) Activity(ctx int) Activity { return m.ctxs[ctx].act }

// VFOf returns the DVFS point requested by a context. The effective core
// point is the max across hyper-thread siblings, as on real hardware.
func (m *Meter) VFOf(ctx int) VF { return m.ctxs[ctx].vf }

// SetActivity transitions a context to a new activity; energy is
// integrated up to the current instant before the change applies.
func (m *Meter) SetActivity(ctx int, a Activity) {
	if m.ctxs[ctx].act == a {
		return
	}
	// Checked here, so a bad value panics in the caller, not in the
	// helper that replays it.
	if uint(a) >= uint(numActivities) {
		panic(fmt.Sprintf("power: SetActivity(%d, %v)", ctx, a))
	}
	m.ctxs[ctx].act = a
	m.note(ctx, false, uint8(a))
}

// SetVF sets a context's requested DVFS point.
func (m *Meter) SetVF(ctx int, v VF) {
	old := m.ctxs[ctx].vf
	if old == v {
		return
	}
	m.ctxs[ctx].vf = v
	c := m.coreOf[ctx]
	if old == VFMax {
		m.vfMax[c]--
	}
	// The integrator, like the counts, tells VF-max from every other
	// point.
	logged := VFMin
	if v == VFMax {
		m.vfMax[c]++
		logged = VFMax
	}
	m.note(ctx, true, uint8(logged))
}

// EffectiveSlowdown returns the instruction-latency multiplier currently
// applying to ctx (1.0 at VF-max). It accounts for sibling sharing: a
// context that requested VF-min still runs at VF-max speed if its sibling
// holds the core at VF-max.
func (m *Meter) EffectiveSlowdown(ctx int) float64 {
	if m.vfMax[m.coreOf[ctx]] > 0 {
		return 1.0
	}
	return m.slowMin
}

// note logs a transition at the current instant, and hands the batch to
// the helper when it is full.
func (m *Meter) note(ctx int, vf bool, val uint8) {
	m.log[m.n] = record{at: m.k.Now(), ctx: uint16(ctx), vf: vf, val: val}
	if m.n++; m.n == batchLen {
		m.handOff()
	}
}

// handOff queues the full batch, starts a helper if none runs, and takes
// a spare batch to fill next. While maxQueued batches are queued it waits
// for the helper, so the log stays bounded when no CPU is free.
func (m *Meter) handOff() {
	m.mu.Lock()
	for m.queued == maxQueued {
		m.replayed.Wait()
	}
	if m.queued == 0 {
		go m.drainFn()
	}
	m.queue[(m.head+m.queued)%maxQueued] = m.log
	m.queued++
	m.mu.Unlock()
	m.log, m.n = takeBatch(), 0
}

// drain is the helper goroutine: it replays the queued batches in order
// and exits when none is left.
func (m *Meter) drain() {
	m.mu.Lock()
	for m.queued > 0 {
		b := m.queue[m.head]
		m.mu.Unlock()
		m.in.replay(b[:])
		giveBatch(b)
		m.mu.Lock()
		m.queue[m.head] = nil
		m.head = (m.head + 1) % maxQueued
		m.queued--
		m.replayed.Signal()
	}
	m.mu.Unlock()
}

// sync waits until the helper has replayed every batch handed to it,
// replays the partial batch on the caller, and returns the integrator,
// which then reflects every transition so far.
func (m *Meter) sync() *integrator {
	m.mu.Lock()
	for m.queued > 0 {
		m.replayed.Wait()
	}
	m.mu.Unlock()
	m.in.replay(m.log[:m.n])
	m.n = 0
	return m.in
}

// replay applies logged transitions in order, each as the meter did at
// the instant it was logged: integrate up to its time, then mutate.
func (in *integrator) replay(recs []record) {
	for _, r := range recs {
		in.integrate(r.at)
		if r.vf {
			in.setVF(int(r.ctx), VF(r.val))
		} else {
			in.ctxs[r.ctx].act = Activity(r.val)
			in.stale |= 1 << in.coreOf[r.ctx]
		}
	}
}

// setVF applies a context's change of VF point.
func (in *integrator) setVF(ctx int, v VF) {
	old := in.ctxs[ctx].vf
	in.ctxs[ctx].vf = v
	c := in.coreOf[ctx]
	ct := &in.cores[c]
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
		sk := &in.sockets[c/in.topo.CoresPerSocket]
		if isMax {
			sk.vfMax++
		} else {
			sk.vfMax--
		}
		in.stale |= 1 << c
	}
}

func (in *integrator) integrate(now sim.Cycles) {
	if now <= in.lastAt {
		in.lastAt = now
		return
	}
	// Every state change integrates before mutating, so between lastAt and
	// now the per-context state is exactly what it was at lastAt: a deferred
	// rebuild here yields the same rates (and the same summation order) as
	// an eager one at the instant of the change.
	if in.stale != 0 {
		in.recompute()
	}
	dt := float64(now - in.lastAt)
	in.accPkg += in.curPkg * dt
	in.accCores += in.curCores * dt
	in.accDRAM += in.curDRAM * dt
	in.lastAt = now
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
func (in *integrator) recompute() {
	first := bits.TrailingZeros64(in.stale)
	for st := in.stale; st != 0; st &= st - 1 {
		in.refresh(bits.TrailingZeros64(st))
	}
	in.stale = 0

	end := len(in.cores)
	if in.skipDeep {
		end = bits.Len64(in.busy)
	}
	tpc := in.topo.ThreadsPerCore
	// No core from top on is folded, so the folds before any of them are
	// before[top]. When end < c, the cores from end to c are idle-deep and
	// unchanged, so before[c] is already the total.
	c := min(first, in.top)
	s := in.before[c]
	for ; c < end; c++ {
		in.before[c] = s
		if in.skipDeep && in.busy&(1<<c) == 0 {
			continue
		}
		s.cores += in.cores[c].watts
		for _, w := range in.dramW[c*tpc : c*tpc+tpc] {
			s.dram += w
		}
	}
	in.before[end] = s
	in.top = end

	pkg := s.cores
	for _, sk := range in.sockets {
		pkg += in.cfg.PkgStaticW
		if sk.active > 0 {
			// Uncore scales with the highest VF among the socket's cores.
			scale := 1.0
			if sk.vfMax == 0 {
				scale = in.cfg.VFMinScale
			}
			pkg += in.cfg.UncoreActiveW * scale
		}
	}
	in.curPkg, in.curCores, in.curDRAM = pkg, s.cores, s.dram
}

// refresh rebuilds core c's cached terms from its contexts' state.
func (in *integrator) refresh(c int) {
	ct := &in.cores[c]
	scale := 1.0
	if ct.vfMax == 0 {
		scale = in.cfg.VFMinScale
	}
	// The busiest hyper-thread pays full activity power, siblings a
	// fraction: the core's execution resources are shared.
	bestW, extraW := 0.0, 0.0
	active, busy := false, false
	tpc := in.topo.ThreadsPerCore
	dram := in.dramW[c*tpc : c*tpc+tpc]
	for ht := range dram {
		act := in.ctxs[c+ht*len(in.cores)].act
		w := in.cfg.ActivityW[act]
		if w > bestW {
			extraW += bestW
			bestW = w
		} else {
			extraW += w
		}
		dram[ht] = in.cfg.DRAMActivityW[act] * scale
		active = active || !act.IsIdle()
		busy = busy || act != IdleDeep
	}
	ct.watts = (bestW + extraW*in.cfg.HTFraction) * scale
	if active != ct.active {
		ct.active = active
		sk := &in.sockets[c/in.topo.CoresPerSocket]
		if active {
			sk.active++
		} else {
			sk.active--
		}
	}
	if busy {
		in.busy |= 1 << c
	} else {
		in.busy &^= 1 << c
	}
}

// Energy integrates up to now and returns the counters in Joules.
func (m *Meter) Energy() Energy {
	in := m.sync()
	in.integrate(m.k.Now())
	hz := m.cfg.BaseFreqGHz * 1e9
	return Energy{
		Package: in.accPkg / hz,
		Cores:   in.accCores / hz,
		DRAM:    in.accDRAM / hz,
	}
}

// InstantPower returns the current power breakdown in Watts.
func (m *Meter) InstantPower() Breakdown {
	in := m.sync()
	if in.stale != 0 {
		in.recompute()
	}
	return Breakdown{
		Total:   in.curPkg + in.curDRAM,
		Package: in.curPkg,
		Cores:   in.curCores,
		DRAM:    in.curDRAM,
	}
}
