// Package coherence models the cache-coherence behaviour of lock words on
// a multi-socket x86 machine as a cost model, not a cycle-accurate MESI
// implementation.
//
// The model reproduces the observable quantities "Unlocking Energy" relies
// on for its analysis:
//
//   - an L1 hit costs a few cycles; a cache-line transfer costs on the
//     order of 100 cycles (more across sockets);
//   - "waking up" a locally-spinning thread takes two line transfers
//     (≈280 cycles on the paper's Xeon);
//   - atomic operations on a globally-spun-on line take ≈530 cycles under
//     40-thread contention (arbitration among pollers);
//   - a store to a widely-shared line pays an invalidation broadcast.
//     Only the watchers whose predicate the new value satisfies wake
//     and re-fetch the line, serially in a shuffled burst order; a
//     waiter whose condition still fails stays registered and never
//     re-fetches it. So a TICKET release reloads the successor alone,
//     and the next release invalidates almost no sharers (ROADMAP item
//     4 measures what this leaves out).
//
// Threads that busy-wait never iterate cycle-by-cycle in the simulation:
// they register a watcher (local spinning) or a contender (global
// spinning) on the line and are woken by the model when a store changes
// the value they wait for. The epoch between registration and wake is what
// the power model charges at busy-wait wattage.
package coherence

import (
	"fmt"
	"math/bits"

	"lockin/internal/sim"
)

// Config holds the latency constants of the cost model, in cycles.
type Config struct {
	L1Hit           sim.Cycles // load/store hit in the local L1
	SameSocket      sim.Cycles // cache-line transfer between cores of a socket
	CrossSocket     sim.Cycles // cache-line transfer across sockets
	AtomicBase      sim.Cycles // uncontended atomic RMW on an owned line
	AtomicPerPoller sim.Cycles // extra RMW latency per concurrent global poller
	StorePerPoller  sim.Cycles // extra store latency per global poller (release under TAS stress)
	WakeTransfers   int        // line transfers to wake a local spinner (2 on Xeon)
	ReloadStagger   sim.Cycles // serialization between sharers re-fetching after an invalidation
}

// DefaultConfig returns constants calibrated against the paper's Xeon
// (E5-2680 v2): 280-cycle local-spin wake, ≈530-cycle contended atomics at
// 40 pollers, 384-cycle worst-case coherence latency.
func DefaultConfig() Config {
	return Config{
		L1Hit:           4,
		SameSocket:      100,
		CrossSocket:     140,
		AtomicBase:      20,
		AtomicPerPoller: 13,
		StorePerPoller:  13,
		WakeTransfers:   2,
		ReloadStagger:   10,
	}
}

// Topology maps hardware-context ids to sockets so the model can price
// same- vs cross-socket transfers.
type Topology interface {
	SocketOf(ctx int) int
	NumContexts() int
}

// Stats aggregates coherence traffic counters.
type Stats struct {
	Loads         uint64
	Stores        uint64
	RMWs          uint64
	Transfers     uint64 // cache-line transfers (misses)
	Invalidations uint64 // sharer copies invalidated by stores
	WatcherWakes  uint64
}

// Model is the coherence domain: it owns the latency configuration and
// global traffic statistics. Lines are created against a model.
type Model struct {
	k     *sim.Kernel
	cfg   Config
	topo  Topology
	stats Stats

	// scratch is the reusable snapshot buffer of fireWatchers. Safe to
	// share across lines: watcher wake-ups are delivered through events,
	// so fireWatchers never nests.
	scratch []*Watcher
}

// NewModel creates a coherence model bound to a simulation kernel.
func NewModel(k *sim.Kernel, cfg Config, topo Topology) *Model {
	return &Model{k: k, cfg: cfg, topo: topo}
}

// Stats returns a copy of the traffic counters.
func (m *Model) Stats() Stats { return m.stats }

// ResetStats zeroes the traffic counters.
func (m *Model) ResetStats() { m.stats = Stats{} }

// Config returns the model's latency constants.
func (m *Model) Config() Config { return m.cfg }

// WatchKind distinguishes local spinning (load loop on a shared copy) from
// global spinning (atomic polling), which have different cost and power
// implications.
type WatchKind int

const (
	// WatchLocal models test-and-test-and-set style load loops.
	WatchLocal WatchKind = iota
	// WatchGlobal models test-and-set style atomic polling. Global
	// watchers inflate every RMW and store on the line while registered.
	WatchGlobal
)

// Watcher represents a busy-waiting thread registered on a line. Fire is
// called from kernel context when the watched predicate becomes true; the
// watcher is removed first. A watcher whose predicate is false at store
// time stays registered at no event cost.
type Watcher struct {
	Ctx  int // hardware context doing the spinning
	Kind WatchKind
	Pred func(val uint64) bool // wake condition over the line value
	Fire func(val uint64)      // wake action (typically Proc.Wake)

	line *Line
	idx  int // index in line.watchers, -1 when detached

	// gen counts registrations of this watcher object. A scheduled wake
	// carries the generation it was issued for, so a pending delivery
	// cannot reach a watcher that was since recycled and re-registered
	// (spin epochs reuse one watcher per thread).
	gen uint64
}

// Line is one cache line holding a 64-bit lock word.
type Line struct {
	m        *Model
	name     string
	val      uint64
	owner    int    // context owning the line exclusively; -1 if none
	sharers  uint64 // bitmask of contexts with a shared copy
	watchers []*Watcher
	pollers  int // registered WatchGlobal watchers
}

// NewLine allocates a line with initial value 0, owned by nobody.
func (m *Model) NewLine(name string) *Line {
	return &Line{m: m, name: name, owner: -1}
}

// Name returns the debug name of the line.
func (l *Line) Name() string { return l.name }

// Val returns the current value without modelling any cost (for
// assertions and statistics, not for simulated code paths).
func (l *Line) Val() uint64 { return l.val }

// Init sets the line value at setup time, with no cost model and no
// watcher notification. It must not be used from simulated threads.
func (l *Line) Init(v uint64) { l.val = v }

// Pollers returns the number of registered global (atomic-polling)
// watchers; used by the power model to price global-spin activity.
func (l *Line) Pollers() int { return l.pollers }

// NumWatchers returns the number of registered watchers of both kinds.
func (l *Line) NumWatchers() int { return len(l.watchers) }

func (l *Line) transferCost(from, to int) sim.Cycles {
	if from < 0 || to < 0 {
		return l.m.cfg.SameSocket
	}
	if l.m.topo.SocketOf(from) == l.m.topo.SocketOf(to) {
		return l.m.cfg.SameSocket
	}
	return l.m.cfg.CrossSocket
}

// Read returns the line value and the cost of the load for context ctx.
func (l *Line) Read(ctx int) (uint64, sim.Cycles) {
	l.m.stats.Loads++
	bit := uint64(1) << uint(ctx)
	if l.owner == ctx || l.sharers&bit != 0 {
		return l.val, l.m.cfg.L1Hit
	}
	// Miss: fetch from current owner (or another sharer / memory).
	cost := l.transferCost(l.owner, ctx)
	l.m.stats.Transfers++
	if l.owner >= 0 {
		// Owner's copy downgrades to shared.
		l.sharers |= uint64(1) << uint(l.owner)
		l.owner = -1
	}
	l.sharers |= bit
	return l.val, cost
}

// invalidate removes all shared copies except keep's and returns the
// broadcast cost component.
func (l *Line) invalidate(keep int) sim.Cycles {
	bit := uint64(1) << uint(keep)
	others := l.sharers &^ bit
	n := bits.OnesCount64(others)
	if l.owner >= 0 && l.owner != keep {
		n++
	}
	l.m.stats.Invalidations += uint64(n)
	l.sharers = 0
	return sim.Cycles(n) * l.m.cfg.ReloadStagger
}

// Write stores val into the line for ctx and returns the cost. Watchers
// whose predicate matches the new value are woken (staggered) via the
// kernel.
func (l *Line) Write(ctx int, val uint64) sim.Cycles {
	l.m.stats.Stores++
	cost := l.m.cfg.L1Hit
	if l.owner != ctx {
		cost = l.transferCost(l.owner, ctx)
		l.m.stats.Transfers++
	}
	cost += l.invalidate(ctx)
	// Under global polling, the store itself must win the line against
	// the pollers' atomics (this is what makes TAS release expensive).
	cost += sim.Cycles(l.pollers) * l.m.cfg.StorePerPoller
	l.owner = ctx
	changed := l.val != val
	l.val = val
	if changed {
		l.fireWatchers()
	}
	return cost
}

// RMW applies f to the line value atomically for ctx. f returns the new
// value and whether to apply it (false models a failed CAS). Returns the
// old value, whether it was applied and the cost.
func (l *Line) RMW(ctx int, f func(old uint64) (uint64, bool)) (uint64, bool, sim.Cycles) {
	l.m.stats.RMWs++
	cost := l.m.cfg.AtomicBase
	if l.owner != ctx {
		cost += l.transferCost(l.owner, ctx)
		l.m.stats.Transfers++
	}
	cost += sim.Cycles(l.pollers) * l.m.cfg.AtomicPerPoller
	cost += l.invalidate(ctx)
	l.owner = ctx
	old := l.val
	nv, apply := f(old)
	if apply {
		changed := l.val != nv
		l.val = nv
		if changed {
			l.fireWatchers()
		}
	}
	return old, apply, cost
}

// Watch registers w on the line. If the predicate already holds, the
// watcher fires after a wake delay (it still pays the reload transfers).
func (l *Line) Watch(w *Watcher) {
	if w.Pred == nil || w.Fire == nil {
		panic("coherence: watcher needs Pred and Fire")
	}
	w.line = l
	w.idx = len(l.watchers)
	w.gen++
	l.watchers = append(l.watchers, w)
	if w.Kind == WatchGlobal {
		l.pollers++
	}
	if w.Pred(l.val) {
		l.scheduleWake(w, 0)
	}
}

// Unwatch removes w if still registered (e.g. spin timeout). Safe to call
// after the watcher fired.
func (l *Line) Unwatch(w *Watcher) {
	if w.idx < 0 || w.line != l {
		return
	}
	last := len(l.watchers) - 1
	l.watchers[w.idx] = l.watchers[last]
	l.watchers[w.idx].idx = w.idx
	l.watchers = l.watchers[:last]
	w.idx = -1
	if w.Kind == WatchGlobal {
		l.pollers--
	}
}

// wakeDelay is the latency between the triggering store and the spinner
// observing it: WakeTransfers line transfers plus a serialization term for
// the re-fetch burst position.
func (l *Line) wakeDelay(w *Watcher, position int) sim.Cycles {
	d := sim.Cycles(l.m.cfg.WakeTransfers) * l.transferCost(l.owner, w.Ctx)
	d += sim.Cycles(position) * l.m.cfg.ReloadStagger
	if w.Kind == WatchGlobal {
		// The poller must additionally win an atomic against its peers.
		d += l.m.cfg.AtomicBase + sim.Cycles(l.pollers)*l.m.cfg.AtomicPerPoller
	}
	return d
}

func (l *Line) scheduleWake(w *Watcher, position int) {
	l.Unwatch(w)
	l.m.stats.WatcherWakes++
	val := l.val
	delay := l.wakeDelay(w, position)
	// The woken spinner re-fetches the line: account the shared copy.
	l.sharers |= uint64(1) << uint(w.Ctx)
	l.m.stats.Transfers++
	l.m.k.ScheduleCall(delay, fireWatcher, w, val, w.gen)
}

// fireWatcher delivers a scheduled watcher wake-up. The generation stamp
// drops deliveries that outlived their registration.
func fireWatcher(obj any, val, gen uint64) {
	w := obj.(*Watcher)
	if w.gen != gen {
		return
	}
	w.Fire(val)
}

// fireWatchers scans watchers after a value change and wakes those whose
// predicate now holds, staggered by their burst position. Iterates over a
// snapshot because scheduleWake mutates the slice.
func (l *Line) fireWatchers() {
	if len(l.watchers) == 0 {
		return
	}
	snapshot := append(l.m.scratch[:0], l.watchers...)
	l.m.scratch = snapshot[:0]
	// Deterministic but unbiased service order among the burst.
	l.m.k.Rand().Shuffle(len(snapshot), func(i, j int) {
		snapshot[i], snapshot[j] = snapshot[j], snapshot[i]
	})
	pos := 0
	for _, w := range snapshot {
		if w.idx < 0 || w.line != l {
			continue // already detached
		}
		if w.Pred(l.val) {
			l.scheduleWake(w, pos)
			pos++
		}
	}
}

func (l *Line) String() string {
	return fmt.Sprintf("line(%s val=%d owner=%d sharers=%d watchers=%d)",
		l.name, l.val, l.owner, bits.OnesCount64(l.sharers), len(l.watchers))
}
