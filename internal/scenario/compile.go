package scenario

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"

	"lockin/internal/core"
	"lockin/internal/experiments"
	"lockin/internal/machine"
	"lockin/internal/metrics"
	"lockin/internal/sim"
	"lockin/internal/sweep"
	"lockin/internal/systems"
	"lockin/internal/workload"
)

// Compiled is a scenario lowered onto the simulation primitives: a
// cell-grid experiment whose cells are the cross product of the spec's
// sweep axes (a sweep.Space), each simulated on a systems.Runner with
// its own seeded machine.
type Compiled struct {
	Spec Spec
	// Hash is the spec's content hash (see Spec.Hash); it rides into
	// results.Meta.SpecHash so stored runs pin their spec revision.
	Hash string

	lockIndex map[string]int
	pinned    []workload.LockFactory // per lock; nil = follow the axis
	kindAxis  []lockKind
	contexts  int // hardware contexts of the spec's machine
}

type lockKind struct {
	name    string
	factory workload.LockFactory
}

// ID returns the registry id the compiled experiment runs under.
func (c *Compiled) ID() string { return "scenario:" + c.Spec.Name }

// Compile validates and lowers a spec. The result is reusable and
// safe for concurrent Runs: all mutable state lives in the per-cell
// simulated machines.
func Compile(s *Spec) (*Compiled, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	c := &Compiled{
		Spec: *s, Hash: s.Hash(),
		lockIndex: map[string]int{},
		contexts:  s.machineContexts(),
	}
	for i, l := range c.Spec.Locks {
		c.lockIndex[l.Name] = i
		var pin workload.LockFactory
		if l.Kind != "" {
			f, err := workload.FactoryNamed(l.Kind)
			if err != nil {
				return nil, fmt.Errorf("scenario %s: lock %s: %w", s.Name, l.Name, err)
			}
			pin = f
		}
		c.pinned = append(c.pinned, pin)
	}
	for _, k := range c.Spec.lockAxis() {
		f, err := workload.FactoryNamed(k)
		if err != nil {
			return nil, fmt.Errorf("scenario %s: sweep.locks: %w", s.Name, err)
		}
		c.kindAxis = append(c.kindAxis, lockKind{name: k, factory: f})
	}
	return c, nil
}

// lockAxis resolves the lock-kind axis (default MUTEX).
func (s *Spec) lockAxis() []string {
	if len(s.Sweep.Locks) > 0 {
		return s.Sweep.Locks
	}
	return []string{"MUTEX"}
}

// ParseAndCompile parses a spec file's bytes and compiles it.
func ParseAndCompile(data []byte) (*Compiled, error) {
	s, err := Parse(data)
	if err != nil {
		return nil, err
	}
	return Compile(s)
}

// Experiment wraps the compiled scenario as a registrable experiment.
func (c *Compiled) Experiment() experiments.Experiment {
	paper := c.Spec.Description
	if paper == "" {
		paper = "declarative scenario (no paper counterpart)"
	}
	return experiments.Experiment{
		ID:       c.ID(),
		Title:    c.title(),
		Paper:    paper,
		SpecHash: c.Hash,
		Axes:     c.RunAxes,
		Grid:     c.Run,
	}
}

func (c *Compiled) title() string {
	if c.Spec.Title != "" {
		return c.Spec.Title
	}
	return "scenario " + c.Spec.Name
}

// extraAxis is one declared non-classic axis: its metadata, its table
// column, and how a cell's value for it is read. One descriptor list
// drives header(), row() and DeclaredAxes(), so column headers, cell
// values and results.Meta.Axes can never fall out of lockstep.
type extraAxis struct {
	axis   sweep.Axis
	column string
	value  func(cellParams) any
}

// extraAxes returns the spec's declared extra axes in their fixed
// nesting (and column) order: oversub, read, skew. Each axis records
// its column header (sweep.Axis.Column), so the results query layer
// can drop the column when the axis is sliced or projected away —
// read from the same descriptor that builds the header, keeping the
// two in lockstep.
func (c *Compiled) extraAxes() []extraAxis {
	sw := c.Spec.Sweep
	var out []extraAxis
	if len(sw.Oversub) > 0 {
		out = append(out, extraAxis{axisOf("oversub", sw.Oversub), "oversub",
			func(p cellParams) any { return p.oversub }})
	}
	if len(sw.Read) > 0 {
		out = append(out, extraAxis{axisOf("read", sw.Read), "read%",
			func(p cellParams) any { return p.read }})
	}
	if len(sw.Skew) > 0 {
		out = append(out, extraAxis{axisOf("skew", sw.Skew), "skew",
			func(p cellParams) any { return p.skew }})
	}
	for i := range out {
		out[i].axis.Column = out[i].column
	}
	return out
}

// DeclaredAxes returns the spec's sweep axes as ordered, typed axis
// metadata in nesting order (outermost first) — the order table ROWS
// enumerate in, last axis fastest; columns are a different order,
// matched by header name. Undeclared axes are omitted; the lock axis
// is always present (default MUTEX). The list rides into
// results.Meta.Axes so stored runs are self-describing.
func (c *Compiled) DeclaredAxes() []sweep.Axis {
	sw := c.Spec.Sweep
	var out []sweep.Axis
	for _, a := range c.extraAxes() {
		out = append(out, a.axis)
	}
	if len(sw.Threads) > 0 {
		out = append(out, axisOf("threads", sw.Threads))
	}
	if len(sw.CS) > 0 {
		out = append(out, axisOf("cs", sw.CS))
	}
	return append(out, axisOf("lock", c.Spec.lockAxis()))
}

// RunAxes returns the axes a run under o actually sweeps: the
// declared axes with the same quick trimming Run applies to the cell
// grid, so results.Meta.Axes always matches the stored table's rows.
func (c *Compiled) RunAxes(o experiments.Options) []sweep.Axis {
	axes := c.DeclaredAxes()
	if !o.Quick {
		return axes
	}
	for i := range axes {
		axes[i].Values = firstLast(axes[i].Values)
	}
	return axes
}

// axisOf lifts a typed value slice into a sweep.Axis.
func axisOf[T any](name string, vals []T) sweep.Axis {
	anys := make([]any, len(vals))
	for i, v := range vals {
		anys[i] = v
	}
	return sweep.NewAxis(name, anys...)
}

// resolvedAxes are one run's sweep axes after quick trimming, in the
// fixed nesting order (oversub, read, skew outermost; threads, cs,
// lock innermost). New axes nest OUTSIDE the classic triple so a spec
// that folds an old one under a new axis keeps the old spec's cells at
// indices 0..n-1 — same index-derived seeds, byte-identical slice.
// Undeclared axes hold one sentinel value the compiled loops never
// consume (validation guarantees every consumer has a declared axis or
// a pinned value).
type resolvedAxes struct {
	oversub []float64 // sentinel 0: no oversub groups
	read    []int     // sentinel -1: no weight_axis choices
	skew    []float64 // sentinel NaN: zipf locks pin their skew
	threads []int     // sentinel 0: groups pin their counts
	cs      []int64   // sentinel 0: ops pin their cs
	kinds   []lockKind
}

// space lowers the resolved axes onto the sweep engine's cell
// enumeration.
func (a resolvedAxes) space() sweep.Space {
	kindNames := make([]string, len(a.kinds))
	for i, k := range a.kinds {
		kindNames[i] = k.name
	}
	return sweep.NewSpace(
		axisOf("oversub", a.oversub),
		axisOf("read", a.read),
		axisOf("skew", a.skew),
		axisOf("threads", a.threads),
		axisOf("cs", a.cs),
		axisOf("lock", kindNames),
	)
}

// cellParams are one cell's resolved axis values.
type cellParams struct {
	threads int // threads-axis value (0 = groups pin their counts)
	cs      int64
	read    int
	oversub float64
	skew    float64
	kind    lockKind
}

// at resolves the cell at index i of the space.
func (a resolvedAxes) at(s sweep.Space, i int) cellParams {
	co := s.Coords(i)
	return cellParams{
		oversub: a.oversub[co[0]],
		read:    a.read[co[1]],
		skew:    a.skew[co[2]],
		threads: a.threads[co[3]],
		cs:      a.cs[co[4]],
		kind:    a.kinds[co[5]],
	}
}

// axes resolves the sweep axes for a run; quick mode trims each axis
// to its first and last value, mirroring the grid trimming of the
// built-in experiments.
func (c *Compiled) axes(quick bool) resolvedAxes {
	a := resolvedAxes{
		oversub: c.Spec.Sweep.Oversub,
		read:    c.Spec.Sweep.Read,
		skew:    c.Spec.Sweep.Skew,
		threads: c.Spec.Sweep.Threads,
		cs:      c.Spec.Sweep.CS,
		kinds:   c.kindAxis,
	}
	if len(a.oversub) == 0 {
		a.oversub = []float64{0}
	}
	if len(a.read) == 0 {
		a.read = []int{-1}
	}
	if len(a.skew) == 0 {
		a.skew = []float64{math.NaN()}
	}
	if len(a.threads) == 0 {
		a.threads = []int{0}
	}
	if len(a.cs) == 0 {
		a.cs = []int64{0}
	}
	if quick {
		a.oversub = firstLast(a.oversub)
		a.read = firstLast(a.read)
		a.skew = firstLast(a.skew)
		a.threads = firstLast(a.threads)
		a.cs = firstLast(a.cs)
		a.kinds = firstLast(a.kinds)
	}
	return a
}

func firstLast[T any](vals []T) []T {
	if len(vals) <= 2 {
		return vals
	}
	return []T{vals[0], vals[len(vals)-1]}
}

// machineConfig builds the cell's machine from the spec (seed filled
// by the caller from the cell's derived seed). The topology comes from
// the same resolver the oversub-axis validation uses, so the context
// count oversub factors multiply is always the machine's real one.
func (c *Compiled) machineConfig(seed int64) machine.Config {
	mc := machine.DefaultConfig(seed)
	mc.Topo = c.Spec.machineTopo()
	return mc
}

// groupThreads resolves one group's thread count under the cell's axis
// values.
func (c *Compiled) groupThreads(g *GroupSpec, p cellParams) int {
	switch {
	case g.Oversub:
		return oversubThreads(p.oversub, c.contexts)
	case g.Threads == 0:
		return p.threads
	default:
		return g.Threads
	}
}

// totalThreads resolves the cell's thread count across all groups.
func (c *Compiled) totalThreads(p cellParams) int {
	total := 0
	for gi := range c.Spec.Groups {
		total += c.groupThreads(&c.Spec.Groups[gi], p)
	}
	return total
}

// header renders the table column set: the classic threads/cs/lock
// columns, one column per extra declared axis, the aggregate metric
// columns, then any optional percentile and per-group columns.
func (c *Compiled) header() []string {
	h := []string{"threads", "cs(cycles)", "lock"}
	for _, a := range c.extraAxes() {
		h = append(h, a.column)
	}
	h = append(h, "thr(Kacq/s)", "TPP(Kacq/J)", "p99(Kcyc)")
	for _, p := range c.Spec.percentiles() {
		h = append(h, "p"+strconv.FormatFloat(p, 'g', -1, 64)+"(Kcyc)")
	}
	if c.Spec.perGroup() {
		for gi := range c.Spec.Groups {
			h = append(h, "thr["+groupLabel(&c.Spec.Groups[gi], gi)+"](Kacq/s)")
		}
	}
	return h
}

// groupStats tallies per-group operations of one cell (enabled by
// columns.per_group). Cells simulate on a single-goroutine event
// kernel, so plain counters are race-free.
type groupStats struct {
	ops []uint64
}

// row renders one cell's table row.
func (c *Compiled) row(p cellParams, res systems.Result, stats *groupStats) sweep.Row {
	row := sweep.Row{c.totalThreads(p), p.cs, p.kind.name}
	for _, a := range c.extraAxes() {
		row = append(row, a.value(p))
	}
	row = append(row,
		res.Throughput()/1e3, res.TPP()/1e3,
		float64(res.Latency.Percentile(0.99))/1e3)
	for _, pct := range c.Spec.percentiles() {
		row = append(row, float64(res.Latency.Percentile(pct/100))/1e3)
	}
	if stats != nil {
		secs := res.Seconds()
		for _, ops := range stats.ops {
			thr := 0.0
			if secs > 0 {
				thr = float64(ops) / secs / 1e3
			}
			row = append(row, thr)
		}
	}
	return row
}

// Run executes the scenario grid under the experiment options — one
// sweep cell per point of the spec's axis space, enumerated through
// sweep.Space in the fixed nesting order — and renders one row per
// cell. Cells run on per-cell seeded machines through the sweep
// engine, so output is bit-identical for any worker count and shards
// merge byte-identically.
func (c *Compiled) Run(o experiments.Options) []*metrics.Table {
	ax := c.axes(o.Quick)
	space := ax.space()
	t := metrics.NewTable(c.title(), c.header()...)
	warmup := c.Spec.WarmupCycles
	if warmup == 0 {
		warmup = defaultWarmup
	}
	duration := c.Spec.DurationCycles
	if duration == 0 {
		duration = defaultDuration
	}
	g := sweep.NewGrid(o)
	for i := 0; i < space.Len(); i++ {
		p := ax.at(space, i)
		// The thread count dominates a cell's simulation cost, so it is
		// the cost hint: skewed grids dispatch their big cells first.
		g.AddHinted(float64(c.totalThreads(p)), func(cell sweep.Cell) []sweep.Row {
			res, stats := c.simulate(p, cell.Seed, o.Window(sim.Cycles(warmup)), o.Window(sim.Cycles(duration)))
			return []sweep.Row{c.row(p, res, stats)}
		})
	}
	g.Into(t)
	t.AddNote("scenario %s (spec %s): %d locks, %d groups; cs/threads 0 = per-op/per-group values",
		c.Spec.Name, c.Hash, len(c.Spec.Locks), len(c.Spec.Groups))
	names := ""
	for _, a := range c.RunAxes(o) {
		if names != "" {
			names += " × "
		}
		names += fmt.Sprintf("%s[%d]", a.Name, a.Len())
	}
	t.AddNote("sweep space: %s = %d cells (outermost axis first)", names, space.Len())
	return []*metrics.Table{t}
}

// lockInst is one instantiated lock of a cell: how a loop step
// acquires it, works for cs cycles, and releases it.
type lockInst interface {
	access(t *machine.Thread, rng *rand.Rand, read bool, cs sim.Cycles)
}

type singleInst struct{ l core.Lock }

func (s singleInst) access(t *machine.Thread, _ *rand.Rand, _ bool, cs sim.Cycles) {
	s.l.Lock(t)
	t.Compute(cs)
	s.l.Unlock(t)
}

// stripedInst picks one stripe per access: uniformly (one rng.Intn
// draw, the historical path) or zipf-distributed (one rng.Float64
// draw) when the spec declares a hot-stripe distribution.
type stripedInst struct {
	ls   []core.Lock
	zipf *workload.Zipf // nil = uniform
}

func (s stripedInst) access(t *machine.Thread, rng *rand.Rand, _ bool, cs sim.Cycles) {
	var l core.Lock
	if s.zipf != nil {
		l = s.ls[s.zipf.Pick(rng)]
	} else {
		l = s.ls[rng.Intn(len(s.ls))]
	}
	l.Lock(t)
	t.Compute(cs)
	l.Unlock(t)
}

type rwInst struct{ rw *core.RWLock }

func (s rwInst) access(t *machine.Thread, _ *rand.Rand, read bool, cs sim.Cycles) {
	if read {
		s.rw.RLock(t)
		t.Compute(cs)
		s.rw.RUnlock(t)
		return
	}
	s.rw.Lock(t)
	t.Compute(cs)
	s.rw.Unlock(t)
}

// condQueueInst is the leader/follower write queue: the first thread
// into an empty queue becomes leader and runs the whole batch (the cs)
// while followers sleep on the condition variable until the leader's
// broadcast — RocksDB's group-commit discipline, where the queue, not
// the lock, bounds throughput.
type condQueueInst struct {
	q      core.Lock
	cond   *core.Cond
	queued *int
}

func (s condQueueInst) access(t *machine.Thread, _ *rand.Rand, _ bool, cs sim.Cycles) {
	s.q.Lock(t)
	*s.queued++
	if *s.queued == 1 {
		// Leader: drop the queue lock while writing the batch so
		// followers can enqueue behind us, then close the batch and
		// collect them with the broadcast.
		s.q.Unlock(t)
		t.Compute(cs)
		s.q.Lock(t)
		*s.queued = 0
		s.q.Unlock(t)
		s.cond.Broadcast(t)
		return
	}
	// Follower: the leader commits our work; wait for its broadcast.
	// (A broadcast between the wait's unlock and its sleep is caught by
	// the condvar's sequence check, so no wakeup is lost.)
	s.cond.Wait(t, s.q)
	s.q.Unlock(t)
}

// simulate runs one cell: the grid point p on a fresh machine seeded
// with seed, measured for duration cycles after warmup. The tallies
// are nil unless the spec asks for per-group columns.
func (c *Compiled) simulate(p cellParams, seed int64, warmup, duration sim.Cycles) (systems.Result, *groupStats) {
	var stats *groupStats
	if c.Spec.perGroup() {
		stats = &groupStats{ops: make([]uint64, len(c.Spec.Groups))}
	}
	r := systems.NewRunner(c.machineConfig(seed), warmup, duration)
	c.build(r, p, stats)
	return r.Finish(), stats
}

// build instantiates the spec's locks (pinned kinds keep their own
// factory, the rest use the cell's lock kind) and spawns every group's
// threads running the compiled loop.
func (c *Compiled) build(r *systems.Runner, p cellParams, stats *groupStats) {
	insts := make([]lockInst, len(c.Spec.Locks))
	for i, ls := range c.Spec.Locks {
		mk := p.kind.factory
		if c.pinned[i] != nil {
			mk = c.pinned[i]
		}
		switch ls.Topology {
		case TopoSingle:
			insts[i] = singleInst{l: mk(r.M)}
		case TopoStriped:
			n := ls.Stripes
			if n == 0 {
				n = defaultStripes
			}
			arr := make([]core.Lock, n)
			for j := range arr {
				arr[j] = mk(r.M)
			}
			var z *workload.Zipf
			if ls.Pick == "zipf" {
				skew := p.skew
				if ls.Skew != nil {
					skew = *ls.Skew
				}
				z = workload.NewZipf(n, skew)
			}
			insts[i] = stripedInst{ls: arr, zipf: z}
		case TopoRW:
			insts[i] = rwInst{rw: core.NewRWLock(r.M, mk(r.M), machine.WaitMbar)}
		case TopoCondQueue:
			insts[i] = condQueueInst{q: mk(r.M), cond: core.NewCond(r.M), queued: new(int)}
		default:
			panic(fmt.Sprintf("scenario %s: unvalidated topology %q", c.Spec.Name, ls.Topology))
		}
	}
	tid := 0
	for gi := range c.Spec.Groups {
		g := &c.Spec.Groups[gi]
		n := c.groupThreads(g, p)
		for i := 0; i < n; i++ {
			rng := r.RNG(tid)
			tid++
			gi := gi
			r.M.Spawn(g.Name, func(t *machine.Thread) {
				c.groupLoop(r, t, rng, gi, insts, p, stats)
			})
		}
	}
}

// groupLoop is one thread's compiled iteration loop: pick a body
// (weighted choice or the unconditional ops), run its steps, note the
// completed operation, then the outside work and any periodic blocking.
func (c *Compiled) groupLoop(r *systems.Runner, t *machine.Thread, rng *rand.Rand,
	gi int, insts []lockInst, p cellParams, stats *groupStats) {
	g := &c.Spec.Groups[gi]
	total := choiceTotal(g.Choices, p.read)
	iter := 0
	for r.Running(t) {
		start := t.Proc().Now()
		ops := g.Ops
		if total > 0 {
			d := rng.Intn(total)
			for i := range g.Choices {
				w := choiceWeight(g.Choices[i], p.read)
				if d < w {
					ops = g.Choices[i].Ops
					break
				}
				d -= w
			}
		}
		for oi := range ops {
			c.runOp(t, rng, &ops[oi], insts, p.cs, iter+1)
		}
		counted := r.Note(t, start)
		if stats != nil && counted {
			stats.ops[gi]++
		}
		if g.OutsideCycles > 0 {
			t.Compute(sim.Cycles(g.OutsideCycles))
		}
		iter++
		if g.BlockEvery > 0 && iter%g.BlockEvery == 0 {
			systems.Block(t, sim.Cycles(g.BlockCycles))
		}
	}
}

// runOp executes one loop step. iter is the group loop's 1-based
// iteration number: an every-gated step runs only when iter divides by
// op.Every, so periodic in-operation work (an SSD read every couple of
// transactions) stays inside the measured operation.
func (c *Compiled) runOp(t *machine.Thread, rng *rand.Rand, op *OpSpec, insts []lockInst, axisCS int64, iter int) {
	if op.Every > 1 && iter%op.Every != 0 {
		return
	}
	rep := op.Repeat
	if rep == 0 {
		rep = 1
	}
	for k := 0; k < rep; k++ {
		switch {
		case op.ComputeCycles > 0:
			t.Compute(sim.Cycles(op.ComputeCycles))
		case op.BlockCycles > 0:
			systems.Block(t, sim.Cycles(op.BlockCycles))
		default:
			name := op.Lock
			if len(op.Locks) > 0 {
				name = op.Locks[rng.Intn(len(op.Locks))]
			}
			cs := op.CSCycles
			if cs == 0 {
				cs = axisCS
			}
			insts[c.lockIndex[name]].access(t, rng, op.Mode == "read", sim.Cycles(cs))
		}
	}
}
