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
	"lockin/internal/sched"
	"lockin/internal/sim"
	"lockin/internal/sweep"
	"lockin/internal/workload"
)

// Compiled is a scenario lowered onto the simulation primitives: a
// cell-grid experiment whose cells are the cross product of the spec's
// sweep axes (a sweep.Space), each simulated on a workload.Runner with
// its own seeded machine.
type Compiled struct {
	Spec Spec
	// Hash is the spec's content hash (see Spec.Hash); it rides into
	// results.Meta.SpecHash so stored runs pin their spec revision.
	Hash string

	lockIndex map[string]int
	contexts  int // hardware contexts of the spec's machine
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
	}
	return c, nil
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

// axisDef is one sweep axis of the scenario grid: its name, the table
// column only it adds ("" for threads, cs and lock, whose columns always
// print), the values a spec sweeps on it (none: not swept), and how a
// cell's value on it sets the cell's parameters.
type axisDef struct {
	name, column string
	values       func(*SweepSpec) []metrics.Value
	set          func(*cellParams, metrics.Value)
}

// axisTable declares every sweep axis once, in nesting order (outermost
// first). New axes nest OUTSIDE the classic threads × cs × lock triple,
// so a spec that folds an old one under a new axis keeps the old spec's
// cells at indices 0..n-1: same index-derived seeds, byte-identical
// slice. A new axis takes its SweepSpec field, an entry here (with the
// cellParams field it sets) and the code that reads that field;
// TestEverySweepFieldHasOneAxis pairs the fields with the entries.
var axisTable = []axisDef{
	{"oversub", "oversub", func(s *SweepSpec) []metrics.Value { return valuesOf(s.Oversub) },
		func(p *cellParams, v metrics.Value) { p.oversub = v.Float }},
	{"read", "read%", func(s *SweepSpec) []metrics.Value { return valuesOf(s.Read) },
		func(p *cellParams, v metrics.Value) { p.read = int(v.Int) }},
	{"skew", "skew", func(s *SweepSpec) []metrics.Value { return valuesOf(s.Skew) },
		func(p *cellParams, v metrics.Value) { p.skew = v.Float }},
	{"threads", "", func(s *SweepSpec) []metrics.Value { return valuesOf(s.Threads) },
		func(p *cellParams, v metrics.Value) { p.threads = int(v.Int) }},
	{"cs", "", func(s *SweepSpec) []metrics.Value { return valuesOf(s.CS) },
		func(p *cellParams, v metrics.Value) { p.cs = v.Int }},
	// The lock axis is always swept: MUTEX unless the spec names kinds.
	{"lock", "", func(s *SweepSpec) []metrics.Value {
		if len(s.Locks) == 0 {
			return valuesOf([]string{"MUTEX"})
		}
		return valuesOf(s.Locks)
	}, func(p *cellParams, v metrics.Value) { p.lock = v.Str }},
}

// valuesOf lifts a spec's typed axis values into table cells.
func valuesOf[T any](vals []T) []metrics.Value {
	out := make([]metrics.Value, len(vals))
	for i, v := range vals {
		out[i] = metrics.ValueOf(v)
	}
	return out
}

// RunAxes returns the axes a run under o sweeps, in nesting order: each
// axis the spec sweeps, quick mode trimming it to its first and last
// value as the built-in experiments trim their grids. The run's cells
// are their cross product, table rows enumerate in that order (last
// axis fastest), and the list rides into results.Meta.Axes, so stored
// runs are self-describing.
func (c *Compiled) RunAxes(o experiments.Options) []sweep.Axis {
	var out []sweep.Axis
	for _, d := range axisTable {
		vals := d.values(&c.Spec.Sweep)
		if len(vals) == 0 {
			continue
		}
		if o.Quick && len(vals) > 2 {
			vals = []metrics.Value{vals[0], vals[len(vals)-1]}
		}
		out = append(out, sweep.Axis{Name: d.name, Column: d.column, Values: vals})
	}
	return out
}

// cellParams are one cell's axis values. An axis the spec does not
// sweep keeps its zero value (see cellAt), which validation keeps every
// compiled loop from reading.
type cellParams struct {
	oversub float64
	read    int
	skew    float64
	threads int // 0 = groups pin their counts
	cs      int64
	lock    string // the kind of every lock without a pinned one
}

// cellAt reads cell i of a run's space into its parameters, and returns
// the values of the axes that add a column, in column order.
func cellAt(space sweep.Space, i int) (cellParams, []metrics.Value) {
	p := cellParams{read: -1, skew: math.NaN()}
	var cols []metrics.Value
	vals := space.Values(i)
	for j, a := range space.Axes() {
		for _, d := range axisTable {
			if d.name == a.Name {
				d.set(&p, vals[j])
			}
		}
		if a.Column != "" {
			cols = append(cols, vals[j])
		}
	}
	return p, cols
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
// columns, the column of each swept axis that adds one, the aggregate
// metric columns, then any optional percentile and per-group columns.
func (c *Compiled) header(axes []sweep.Axis) []string {
	h := []string{"threads", "cs(cycles)", "lock"}
	for _, a := range axes {
		if a.Column != "" {
			h = append(h, a.Column)
		}
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

// row renders one cell's table row; cols are its values of the axes
// that add a column.
func (c *Compiled) row(p cellParams, cols []metrics.Value, res workload.Result, stats *groupStats) sweep.Row {
	row := sweep.Row{c.totalThreads(p), p.cs, p.lock}
	for _, v := range cols {
		row = append(row, v)
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
	space := sweep.NewSpace(c.RunAxes(o)...)
	t := metrics.NewTable(c.title(), c.header(space.Axes())...)
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
		p, cols := cellAt(space, i)
		// The thread count dominates a cell's simulation cost, so it is
		// the cost hint: skewed grids dispatch their big cells first.
		g.AddHinted(float64(c.totalThreads(p)), func(cell sweep.Cell) []sweep.Row {
			res, stats := c.simulate(p, cell.Seed, o.Window(sim.Cycles(warmup)), o.Window(sim.Cycles(duration)))
			return []sweep.Row{c.row(p, cols, res, stats)}
		})
	}
	g.Into(t)
	t.AddNote("scenario %s (spec %s): %d locks, %d groups; cs/threads 0 = per-op/per-group values",
		c.Spec.Name, c.Hash, len(c.Spec.Locks), len(c.Spec.Groups))
	names := ""
	for _, a := range space.Axes() {
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
func (c *Compiled) simulate(p cellParams, seed int64, warmup, duration sim.Cycles) (workload.Result, *groupStats) {
	var stats *groupStats
	if c.Spec.perGroup() {
		stats = &groupStats{ops: make([]uint64, len(c.Spec.Groups))}
	}
	r := workload.NewRunner(c.machineConfig(seed), warmup, duration)
	c.build(r, p, stats)
	return r.Finish(), stats
}

// build instantiates the spec's locks (pinned kinds keep their own,
// the rest take the cell's lock kind) and spawns every group's threads
// running the compiled loop.
func (c *Compiled) build(r *workload.Runner, p cellParams, stats *groupStats) {
	insts := make([]lockInst, len(c.Spec.Locks))
	for i, ls := range c.Spec.Locks {
		kind := p.lock
		if ls.Kind != "" {
			kind = ls.Kind
		}
		mk, err := workload.FactoryNamed(kind)
		if err != nil {
			panic(fmt.Sprintf("scenario %s: unvalidated lock kind: %v", c.Spec.Name, err))
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
func (c *Compiled) groupLoop(r *workload.Runner, t *machine.Thread, rng *rand.Rand,
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
			block(t, sim.Cycles(g.BlockCycles))
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
			block(t, sim.Cycles(op.BlockCycles))
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

// block deschedules the thread for roughly d cycles, modelling
// blocking I/O: the hardware context is released to the OS until the
// wakeup fires. Compiled loops use it for SSD reads and bursty
// producers.
func block(t *machine.Thread, d sim.Cycles) {
	t.Scheduler().Kernel().ScheduleCall(d, unblock, t.Thread, 0, 0)
	t.Block()
}

// unblock is block's wakeup, a package-level callback so that a
// blocking op schedules no closure.
func unblock(th any, _, _ uint64) {
	t := th.(*sched.Thread)
	t.Scheduler().Unblock(t, 0)
}
