// Package scenario is the declarative workload subsystem: a JSON spec
// describes a lock workload — thread groups, lock topology (single hot
// lock, striped array, reader-writer wrapper, condvar queue), per-group
// loops with weighted alternatives, machine configuration and a set of
// named sweep axes (threads, critical-section, lock-kind, read-ratio,
// oversubscription-factor and zipf-skew, cross-producted into a
// sweep.Space) — and the compiler lowers it onto the machine/workload
// primitives (each cell a body on a workload.Runner) as a first-class
// experiments.Experiment. Compiled scenarios run through
// internal/sweep (parallel workers, multi-process sharding) and persist
// through internal/results exactly like the hand-coded paper figures,
// so opening a new contention pattern means writing a spec file, not a
// Go package.
//
// The §6 systems are bundled specs too: the package defines the
// paper's Table 3 as seventeen points of their grids and registers
// Figures 13-15, which run it (sect6.go).
package scenario

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"regexp"

	"lockin/internal/topo"
	"lockin/internal/workload"
)

// Lock topologies a spec can declare.
const (
	// TopoSingle is one lock instance guarding one resource.
	TopoSingle = "single"
	// TopoStriped is an array of lock instances; each access picks one
	// uniformly (Memcached's hash-bucket locks).
	TopoStriped = "striped"
	// TopoRW wraps the lock in the reader-writer layer; ops choose
	// shared or exclusive mode (HamsterDB's environment lock).
	TopoRW = "rw"
	// TopoCondQueue is a leader/follower write queue built from the lock
	// plus a condition variable: the first thread in batches the work
	// for every waiter (RocksDB's write path).
	TopoCondQueue = "condqueue"
)

// Spec is the top-level declarative scenario description.
type Spec struct {
	// Name identifies the scenario; the compiled experiment registers as
	// "scenario:<name>". Lowercase letters, digits, '-' and '_' only.
	Name string `json:"name"`
	// Title overrides the rendered table title (default "scenario <name>").
	Title string `json:"title,omitempty"`
	// Description is shown by lockbench -list next to the experiment id.
	Description string `json:"description,omitempty"`
	// Machine selects the simulated machine (default: the Xeon).
	Machine MachineSpec `json:"machine,omitempty"`
	// WarmupCycles is the window warm-up (default 300000). Options.Scale
	// multiplies it like every experiment window. It and DurationCycles
	// are at most maxWindow.
	WarmupCycles int64 `json:"warmup_cycles,omitempty"`
	// DurationCycles is the measurement window (default 10000000).
	DurationCycles int64 `json:"duration_cycles,omitempty"`
	// Locks declares the lock topology the groups contend on.
	Locks []LockSpec `json:"locks"`
	// Groups declares the thread groups and their operation loops.
	Groups []GroupSpec `json:"groups"`
	// Sweep declares the experiment grid axes; one table row per cell.
	Sweep SweepSpec `json:"sweep,omitempty"`
	// Columns selects optional output columns beyond the standard
	// throughput/TPP/p99 set. A pointer so specs without it keep their
	// pre-axis canonical JSON — and therefore their content Hash —
	// byte-identical.
	Columns *ColumnsSpec `json:"columns,omitempty"`
}

// ColumnsSpec selects optional table columns.
type ColumnsSpec struct {
	// PerGroup adds one throughput column per thread group
	// ("thr[<group>](Kacq/s)"), splitting e.g. producer vs consumer
	// rates that the aggregate column folds together.
	PerGroup bool `json:"per_group,omitempty"`
	// Percentiles adds one latency column per requested percentile
	// ("p50(Kcyc)", "p95(Kcyc)", ...) alongside the standard aggregate
	// columns. Values are percents in (0, 100).
	Percentiles []float64 `json:"percentiles,omitempty"`
}

// MachineSpec selects the simulated hardware.
type MachineSpec struct {
	// Topology is "xeon" (2×10×2, default) or "corei7" (1×4×2). Thread
	// groups exceeding the topology's hardware contexts oversubscribe
	// the machine through the simulated OS scheduler.
	Topology string `json:"topology,omitempty"`
}

// LockSpec declares one named lock the groups reference.
type LockSpec struct {
	Name string `json:"name"`
	// Topology is one of single, striped, rw, condqueue.
	Topology string `json:"topology"`
	// Stripes sizes a striped array (default 16; striped only).
	Stripes int `json:"stripes,omitempty"`
	// Kind pins the lock algorithm by its name in core's catalogue
	// (e.g. "MUTEX", "TICKET", "MUTEXEE", "TAS-BO", "MWAIT").
	// Empty means the lock follows the sweep's lock-kind axis.
	Kind string `json:"kind,omitempty"`
	// Pick selects the stripe distribution of a striped lock: "uniform"
	// (default) or "zipf" (hot-stripe: stripe i drawn with probability
	// proportional to 1/(i+1)^skew — skewed key popularity hashing onto
	// bucket locks).
	Pick string `json:"pick,omitempty"`
	// Skew pins the zipf skew. Absent on a zipf-picked lock means "take
	// the value of the sweep's skew axis".
	Skew *float64 `json:"skew,omitempty"`
}

// GroupSpec declares one group of identical threads and their loop:
// each iteration runs the ops (or one weighted choice), then the
// outside work, and counts as one operation in the scenario's
// throughput/latency measurement.
type GroupSpec struct {
	Name string `json:"name,omitempty"`
	// Threads is the group's thread count; 0 means "take the value of
	// the sweep's threads axis" (or of the oversub axis, see Oversub).
	Threads int `json:"threads"`
	// Oversub ties the group's thread count to the sweep's oversub axis
	// instead: count = round(factor × hardware contexts of the machine).
	// Threads must be 0.
	Oversub bool `json:"oversub,omitempty"`
	// OutsideCycles is non-critical work after each iteration.
	OutsideCycles int64 `json:"outside_cycles,omitempty"`
	// BlockEvery/BlockCycles model periodic blocking I/O: every
	// BlockEvery iterations the thread deschedules for BlockCycles,
	// releasing its hardware context (bursty producers, SSD reads).
	BlockEvery  int   `json:"block_every,omitempty"`
	BlockCycles int64 `json:"block_cycles,omitempty"`
	// Ops is the unconditional loop body. Exactly one of Ops/Choices.
	Ops []OpSpec `json:"ops,omitempty"`
	// Choices are weighted alternative bodies; each iteration draws one
	// (read/write mixes, GET/SET ratios).
	Choices []ChoiceSpec `json:"choices,omitempty"`
}

// ChoiceSpec is one weighted alternative loop body. Exactly one of
// Weight/WeightAxis supplies the weight.
type ChoiceSpec struct {
	// Weight is a fixed positive weight.
	Weight int `json:"weight,omitempty"`
	// WeightAxis ties the weight to the sweep's read axis (a
	// percentage): "read" takes the axis value, "rest" its complement
	// to 100 — a read/write or GET/SET mix whose ratio is a sweep
	// dimension instead of a constant.
	WeightAxis string   `json:"weight_axis,omitempty"`
	Ops        []OpSpec `json:"ops"`
}

// OpSpec is one step of a loop body: a critical section on a named
// lock, plain computation, or a blocking span. Exactly one of
// Lock/Locks, ComputeCycles, BlockCycles must be set.
type OpSpec struct {
	// Lock names the lock to acquire; Locks lists several to pick from
	// uniformly per iteration (SQLite's db-or-WAL accesses).
	Lock  string   `json:"lock,omitempty"`
	Locks []string `json:"locks,omitempty"`
	// Mode is "write" (default) or "read" (rw locks only).
	Mode string `json:"mode,omitempty"`
	// CSCycles is the critical-section length; 0 means "take the value
	// of the sweep's cs axis".
	CSCycles int64 `json:"cs_cycles,omitempty"`
	// Repeat runs the step several times per iteration (default 1).
	Repeat int `json:"repeat,omitempty"`
	// Every runs the step only on every Every-th iteration of the group
	// loop (default 0 = every iteration). Unlike the group-level
	// block_every/block_cycles — which deschedule BETWEEN measured
	// operations — an every-gated step stays inside the measured
	// operation, so its cost lands in the latency percentiles: MySQL's
	// SSD profile issues a blocking read every couple of transactions
	// and counts the wait against the transaction.
	Every int `json:"every,omitempty"`
	// ComputeCycles is lock-free computation (request parsing, planning).
	ComputeCycles int64 `json:"compute_cycles,omitempty"`
	// BlockCycles deschedules the thread mid-iteration (blocking I/O).
	BlockCycles int64 `json:"block_cycles,omitempty"`
}

// SweepSpec declares the experiment grid: an ordered set of named
// axes whose cross product is the cell grid. Cells enumerate in the
// fixed nesting order oversub → read → skew → threads → cs → lock
// (outermost first); every cell simulates on its own machine with a
// stable index-derived seed, so scenarios shard and parallelize like
// the built-in figures, and adding a new outer axis keeps the first
// slice's cell indices — and therefore seeds and results — identical
// to a spec without it.
type SweepSpec struct {
	// Locks is the lock-kind axis applied to every lock without a
	// pinned Kind (default ["MUTEX"]).
	Locks []string `json:"locks,omitempty"`
	// Threads is the thread-count axis filling groups with threads: 0.
	Threads []int `json:"threads,omitempty"`
	// CS is the critical-section axis filling lock ops with cs_cycles 0.
	CS []int64 `json:"cs,omitempty"`
	// Read is the read-ratio axis (percent, 0..100) feeding choices
	// with weight_axis "read"/"rest".
	Read []int `json:"read,omitempty"`
	// Oversub is the oversubscription-factor axis: groups with oversub
	// true run round(factor × hardware contexts) threads (factor 2 on
	// the 40-context Xeon = 80 threads).
	Oversub []float64 `json:"oversub,omitempty"`
	// Skew is the zipf-skew axis feeding zipf-picked striped locks
	// without a pinned skew (0 = uniform).
	Skew []float64 `json:"skew,omitempty"`
}

// Defaults applied by Parse/Compile.
const (
	defaultWarmup   = 300_000
	defaultDuration = 10_000_000
	defaultStripes  = 16
	maxThreads      = 4096
	// maxWindow bounds warmup_cycles and duration_cycles: scaled by at
	// most the largest scale the options accept (1e6), a window stays
	// below 2^63 cycles.
	maxWindow = 1_000_000_000_000
)

var nameRE = regexp.MustCompile(`^[a-z0-9][a-z0-9_-]*$`)

// Parse decodes and validates a spec from JSON. Unknown fields are
// rejected, so typos surface as errors instead of silently ignored
// knobs. Malformed input returns an error; it never panics.
func Parse(data []byte) (*Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("scenario: parse spec: %w", err)
	}
	// Trailing garbage after the spec object is a malformed file too.
	if dec.More() {
		return nil, fmt.Errorf("scenario: parse spec: trailing data after spec object")
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Hash returns the spec's content hash: 12 hex digits of the SHA-256
// of its canonical (re-marshalled) JSON with the cosmetic fields
// (title, description) zeroed — formatting-only and doc-only edits
// keep the hash; any change to the measured workload moves it. The
// hash is recorded in results.Meta.SpecHash and diffs refuse to
// compare runs of different spec revisions, so a doc typo fix must
// not invalidate an hours-long stored baseline.
func (s *Spec) Hash() string {
	c := *s
	c.Title, c.Description = "", ""
	b, err := json.Marshal(c)
	if err != nil {
		// A parsed Spec is plain data; Marshal cannot fail on it.
		panic(fmt.Sprintf("scenario: hash %s: %v", s.Name, err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:6])
}

// axisUse records which sweep axes the walked spec fields consume.
// Validate fills it while checking locks, groups and ops, then the
// generic effectiveness pass compares it against the declared axes.
type axisUse struct {
	threads, cs, read, oversub, skew bool
}

// Validate checks the spec's structural invariants and reports the
// first violation with enough context to fix the file.
func (s *Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("scenario: spec needs a name")
	}
	if !nameRE.MatchString(s.Name) {
		return fmt.Errorf("scenario %s: name must match %s", s.Name, nameRE)
	}
	switch s.Machine.Topology {
	case "", "xeon", "corei7":
	default:
		return fmt.Errorf("scenario %s: unknown machine topology %q (want xeon or corei7)", s.Name, s.Machine.Topology)
	}
	if s.WarmupCycles < 0 || s.DurationCycles < 0 || s.WarmupCycles > maxWindow || s.DurationCycles > maxWindow {
		return fmt.Errorf("scenario %s: warmup_cycles/duration_cycles must be non-negative and at most %g", s.Name, float64(maxWindow))
	}
	if err := s.validateSweep(); err != nil {
		return err
	}
	if err := s.validateColumns(); err != nil {
		return err
	}
	var use axisUse
	locks, err := s.validateLocks(&use)
	if err != nil {
		return err
	}
	if len(s.Groups) == 0 {
		return fmt.Errorf("scenario %s: needs at least one group", s.Name)
	}
	for gi := range s.Groups {
		if err := s.validateGroup(gi, locks, &use); err != nil {
			return err
		}
	}
	// Generic per-axis effectiveness: a declared axis no spec field
	// follows would sweep nothing — every row of the axis' slices would
	// repeat the same measurement under a different label.
	effs := []struct {
		name     string
		declared bool
		used     bool
		hint     string
	}{
		{"threads", len(s.Sweep.Threads) > 0, use.threads, "every group pins its thread count"},
		{"cs", len(s.Sweep.CS) > 0, use.cs, "every lock op pins cs_cycles"},
		{"read", len(s.Sweep.Read) > 0, use.read, "no choice takes its weight from the axis (weight_axis)"},
		{"oversub", len(s.Sweep.Oversub) > 0, use.oversub, "no group sets oversub: true"},
		{"skew", len(s.Sweep.Skew) > 0, use.skew, "every zipf-picked lock pins its skew"},
	}
	for _, a := range effs {
		if a.declared && !a.used {
			return fmt.Errorf("scenario %s: sweep.%s axis has no effect: %s", s.Name, a.name, a.hint)
		}
	}
	if len(s.Sweep.Locks) > 1 {
		swept := false
		for _, l := range s.Locks {
			if l.Kind == "" {
				swept = true
			}
		}
		if !swept {
			return fmt.Errorf("scenario %s: sweep.locks axis overlaps the pinned lock kinds: every lock pins its kind, so the axis has no effect", s.Name)
		}
	}
	return nil
}

// validateGroup checks one thread group and its loop bodies.
func (s *Spec) validateGroup(gi int, locks map[string]LockSpec, use *axisUse) error {
	g := &s.Groups[gi]
	gname := g.Name
	if gname == "" {
		gname = fmt.Sprintf("group %d", gi)
	}
	// Under per_group columns, group names feed table column headers
	// addressed by the CLI's name=value tolerance syntax, so keep them
	// to the same safe alphabet as scenario names. Specs without
	// per-group columns keep the historical unrestricted names.
	if s.perGroup() && g.Name != "" && !nameRE.MatchString(g.Name) {
		return fmt.Errorf("scenario %s: group name %q must match %s for per_group columns", s.Name, g.Name, nameRE)
	}
	switch {
	case g.Threads < 0:
		return fmt.Errorf("scenario %s: %s: negative thread count %d", s.Name, gname, g.Threads)
	case g.Oversub && g.Threads != 0:
		return fmt.Errorf("scenario %s: %s: oversub groups follow the sweep.oversub axis; drop threads", s.Name, gname)
	case g.Oversub && len(s.Sweep.Oversub) == 0:
		return fmt.Errorf("scenario %s: %s: oversub: true needs a sweep.oversub axis", s.Name, gname)
	case g.Threads == 0 && !g.Oversub && len(s.Sweep.Threads) == 0:
		return fmt.Errorf("scenario %s: %s: zero threads (set threads, or declare a sweep.threads axis for it to follow)", s.Name, gname)
	case g.Threads > maxThreads:
		return fmt.Errorf("scenario %s: %s: %d threads exceeds the %d-thread limit", s.Name, gname, g.Threads, maxThreads)
	}
	switch {
	case g.Oversub:
		use.oversub = true
	case g.Threads == 0:
		use.threads = true
	}
	if g.OutsideCycles < 0 {
		return fmt.Errorf("scenario %s: %s: negative outside_cycles", s.Name, gname)
	}
	if g.BlockEvery < 0 || g.BlockCycles < 0 {
		return fmt.Errorf("scenario %s: %s: negative block_every/block_cycles", s.Name, gname)
	}
	if (g.BlockEvery > 0) != (g.BlockCycles > 0) {
		return fmt.Errorf("scenario %s: %s: block_every and block_cycles go together", s.Name, gname)
	}
	bodies := [][]OpSpec{g.Ops}
	switch {
	case len(g.Ops) > 0 && len(g.Choices) > 0:
		return fmt.Errorf("scenario %s: %s: declare ops or choices, not both", s.Name, gname)
	case len(g.Ops) == 0 && len(g.Choices) == 0:
		return fmt.Errorf("scenario %s: %s: needs ops or choices", s.Name, gname)
	case len(g.Choices) > 0:
		bodies = bodies[:0]
		for ci, ch := range g.Choices {
			switch ch.WeightAxis {
			case "":
				if ch.Weight <= 0 {
					return fmt.Errorf("scenario %s: %s: choice %d needs a positive weight", s.Name, gname, ci)
				}
			case "read", "rest":
				if ch.Weight != 0 {
					return fmt.Errorf("scenario %s: %s: choice %d: set weight or weight_axis, not both", s.Name, gname, ci)
				}
				if len(s.Sweep.Read) == 0 {
					return fmt.Errorf("scenario %s: %s: choice %d: weight_axis needs a sweep.read axis", s.Name, gname, ci)
				}
				use.read = true
			default:
				return fmt.Errorf("scenario %s: %s: choice %d: unknown weight_axis %q (want read or rest)", s.Name, gname, ci, ch.WeightAxis)
			}
			if len(ch.Ops) == 0 {
				return fmt.Errorf("scenario %s: %s: choice %d has no ops", s.Name, gname, ci)
			}
			bodies = append(bodies, ch.Ops)
		}
		// Every cell's weighted draw needs a positive total; with
		// axis-fed weights the total depends on the read-axis value.
		for _, v := range s.readAxisOrFixed() {
			if total := choiceTotal(g.Choices, v); total <= 0 {
				return fmt.Errorf("scenario %s: %s: choices have non-positive total weight %d at read = %d", s.Name, gname, total, v)
			}
		}
	}
	for _, ops := range bodies {
		for oi, op := range ops {
			usedCS, err := s.validateOp(gname, oi, op, locks)
			if err != nil {
				return err
			}
			use.cs = use.cs || usedCS
		}
	}
	return nil
}

// readAxisOrFixed returns the read axis, or a one-value placeholder
// when no axis is declared (fixed weights don't depend on it).
func (s *Spec) readAxisOrFixed() []int {
	if len(s.Sweep.Read) > 0 {
		return s.Sweep.Read
	}
	return []int{0}
}

// choiceTotal resolves a choice list's total weight at one read-axis
// value.
func choiceTotal(choices []ChoiceSpec, read int) int {
	total := 0
	for _, ch := range choices {
		total += choiceWeight(ch, read)
	}
	return total
}

// choiceWeight resolves one choice's weight at one read-axis value.
func choiceWeight(ch ChoiceSpec, read int) int {
	switch ch.WeightAxis {
	case "read":
		return read
	case "rest":
		return 100 - read
	default:
		return ch.Weight
	}
}

func (s *Spec) validateLocks(use *axisUse) (map[string]LockSpec, error) {
	if len(s.Locks) == 0 {
		return nil, fmt.Errorf("scenario %s: needs at least one lock", s.Name)
	}
	locks := make(map[string]LockSpec, len(s.Locks))
	for _, l := range s.Locks {
		if l.Name == "" {
			return nil, fmt.Errorf("scenario %s: every lock needs a name", s.Name)
		}
		if _, dup := locks[l.Name]; dup {
			return nil, fmt.Errorf("scenario %s: duplicate lock %q", s.Name, l.Name)
		}
		switch l.Topology {
		case TopoSingle, TopoStriped, TopoRW, TopoCondQueue:
		default:
			return nil, fmt.Errorf("scenario %s: lock %s: unknown topology %q (want %s, %s, %s or %s)",
				s.Name, l.Name, l.Topology, TopoSingle, TopoStriped, TopoRW, TopoCondQueue)
		}
		if l.Stripes != 0 && l.Topology != TopoStriped {
			return nil, fmt.Errorf("scenario %s: lock %s: stripes only applies to the %s topology", s.Name, l.Name, TopoStriped)
		}
		if l.Stripes < 0 || (l.Topology == TopoStriped && l.Stripes == 1) {
			return nil, fmt.Errorf("scenario %s: lock %s: a striped lock needs at least 2 stripes", s.Name, l.Name)
		}
		switch l.Pick {
		case "", "uniform":
			if l.Pick != "" && l.Topology != TopoStriped {
				return nil, fmt.Errorf("scenario %s: lock %s: pick only applies to the %s topology", s.Name, l.Name, TopoStriped)
			}
			if l.Skew != nil {
				return nil, fmt.Errorf("scenario %s: lock %s: skew only applies to zipf-picked locks", s.Name, l.Name)
			}
		case "zipf":
			if l.Topology != TopoStriped {
				return nil, fmt.Errorf("scenario %s: lock %s: pick only applies to the %s topology", s.Name, l.Name, TopoStriped)
			}
			switch {
			case l.Skew != nil:
				if *l.Skew < 0 {
					return nil, fmt.Errorf("scenario %s: lock %s: negative skew %g", s.Name, l.Name, *l.Skew)
				}
			case len(s.Sweep.Skew) == 0:
				return nil, fmt.Errorf("scenario %s: lock %s: zipf pick needs a skew, or a sweep.skew axis for it to follow", s.Name, l.Name)
			default:
				use.skew = true
			}
		default:
			return nil, fmt.Errorf("scenario %s: lock %s: unknown pick %q (want uniform or zipf)", s.Name, l.Name, l.Pick)
		}
		if l.Kind != "" {
			if _, err := workload.FactoryNamed(l.Kind); err != nil {
				return nil, fmt.Errorf("scenario %s: lock %s: %w", s.Name, l.Name, err)
			}
		}
		locks[l.Name] = l
	}
	return locks, nil
}

// validateOp checks one loop step and reports whether it consumes the
// sweep's cs axis.
func (s *Spec) validateOp(gname string, oi int, op OpSpec, locks map[string]LockSpec) (usesCSAxis bool, err error) {
	kinds := 0
	if op.Lock != "" || len(op.Locks) > 0 {
		kinds++
	}
	if op.ComputeCycles != 0 {
		kinds++
	}
	if op.BlockCycles != 0 {
		kinds++
	}
	if kinds != 1 {
		return false, fmt.Errorf("scenario %s: %s: op %d must set exactly one of lock/locks, compute_cycles, block_cycles", s.Name, gname, oi)
	}
	if op.Repeat < 0 {
		return false, fmt.Errorf("scenario %s: %s: op %d: negative repeat", s.Name, gname, oi)
	}
	if op.Every < 0 {
		return false, fmt.Errorf("scenario %s: %s: op %d: negative every", s.Name, gname, oi)
	}
	if op.ComputeCycles != 0 || op.BlockCycles != 0 {
		if op.ComputeCycles < 0 || op.BlockCycles < 0 {
			return false, fmt.Errorf("scenario %s: %s: op %d: negative cycle count", s.Name, gname, oi)
		}
		if op.Mode != "" || op.CSCycles != 0 {
			return false, fmt.Errorf("scenario %s: %s: op %d: mode/cs_cycles only apply to lock ops", s.Name, gname, oi)
		}
		return false, nil
	}
	targets := op.Locks
	if op.Lock != "" {
		if len(op.Locks) > 0 {
			return false, fmt.Errorf("scenario %s: %s: op %d: set lock or locks, not both", s.Name, gname, oi)
		}
		targets = []string{op.Lock}
	}
	for _, name := range targets {
		l, ok := locks[name]
		if !ok {
			return false, fmt.Errorf("scenario %s: %s: op %d references undeclared lock %q", s.Name, gname, oi, name)
		}
		switch op.Mode {
		case "", "write":
		case "read":
			if l.Topology != TopoRW {
				return false, fmt.Errorf("scenario %s: %s: op %d: read mode needs an %s lock, %s is %s", s.Name, gname, oi, TopoRW, name, l.Topology)
			}
		default:
			return false, fmt.Errorf("scenario %s: %s: op %d: unknown mode %q (want read or write)", s.Name, gname, oi, op.Mode)
		}
	}
	if op.CSCycles < 0 {
		return false, fmt.Errorf("scenario %s: %s: op %d: negative cs_cycles", s.Name, gname, oi)
	}
	if op.CSCycles == 0 {
		if len(s.Sweep.CS) == 0 {
			return false, fmt.Errorf("scenario %s: %s: op %d: needs cs_cycles, or a sweep.cs axis for it to follow", s.Name, gname, oi)
		}
		return true, nil
	}
	return false, nil
}

// validateSweep applies per-axis uniqueness and value checks to every
// declared axis of the sweep space.
func (s *Spec) validateSweep() error {
	if err := uniqueAxis(s.Name, "locks", s.Sweep.Locks, func(k string) error {
		_, err := workload.FactoryNamed(k)
		return err
	}); err != nil {
		return err
	}
	if err := uniqueAxis(s.Name, "threads", s.Sweep.Threads, func(n int) error {
		if n < 1 || n > maxThreads {
			return fmt.Errorf("thread count %d out of range [1, %d]", n, maxThreads)
		}
		return nil
	}); err != nil {
		return err
	}
	if err := uniqueAxis(s.Name, "cs", s.Sweep.CS, func(c int64) error {
		if c < 1 {
			return fmt.Errorf("critical section %d must be positive", c)
		}
		return nil
	}); err != nil {
		return err
	}
	if err := uniqueAxis(s.Name, "read", s.Sweep.Read, func(r int) error {
		if r < 0 || r > 100 {
			return fmt.Errorf("read ratio %d out of range [0, 100]", r)
		}
		return nil
	}); err != nil {
		return err
	}
	ctx := s.machineContexts()
	// Distinct factors can still round to the same thread count — the
	// same duplicate measurement a literally-overlapping axis produces —
	// so uniqueness is checked on the resolved counts too.
	seenThreads := make(map[int]float64, len(s.Sweep.Oversub))
	if err := uniqueAxis(s.Name, "oversub", s.Sweep.Oversub, func(f float64) error {
		if !(f > 0) {
			return fmt.Errorf("oversubscription factor %g must be positive", f)
		}
		n := oversubThreads(f, ctx)
		if n < 1 || n > maxThreads {
			return fmt.Errorf("oversubscription factor %g resolves to %d threads, out of range [1, %d]", f, n, maxThreads)
		}
		if prev, dup := seenThreads[n]; dup {
			return fmt.Errorf("factors %g and %g both resolve to %d threads on this machine — overlapping values", prev, f, n)
		}
		seenThreads[n] = f
		return nil
	}); err != nil {
		return err
	}
	return uniqueAxis(s.Name, "skew", s.Sweep.Skew, func(z float64) error {
		if math.IsNaN(z) || math.IsInf(z, 0) || z < 0 {
			return fmt.Errorf("skew %g must be a non-negative finite value", z)
		}
		return nil
	})
}

// perGroup reports whether the spec requests per-group columns.
func (s *Spec) perGroup() bool { return s.Columns != nil && s.Columns.PerGroup }

// percentiles returns the requested extra latency-percentile columns.
func (s *Spec) percentiles() []float64 {
	if s.Columns == nil {
		return nil
	}
	return s.Columns.Percentiles
}

// validateColumns checks the optional output-column selection.
func (s *Spec) validateColumns() error {
	seen := make(map[float64]bool, len(s.percentiles()))
	for _, p := range s.percentiles() {
		if math.IsNaN(p) || p <= 0 || p >= 100 {
			return fmt.Errorf("scenario %s: columns.percentiles: percentile %g out of range (0, 100)", s.Name, p)
		}
		if p == 99 {
			return fmt.Errorf("scenario %s: columns.percentiles: 99 collides with the built-in p99 column", s.Name)
		}
		if seen[p] {
			return fmt.Errorf("scenario %s: columns.percentiles: %g appears twice", s.Name, p)
		}
		seen[p] = true
	}
	if s.perGroup() {
		names := make(map[string]bool, len(s.Groups))
		for gi := range s.Groups {
			n := groupLabel(&s.Groups[gi], gi)
			if names[n] {
				return fmt.Errorf("scenario %s: columns.per_group: duplicate group column %q — name the groups uniquely", s.Name, n)
			}
			names[n] = true
		}
	}
	return nil
}

// groupLabel names a group for per-group columns.
func groupLabel(g *GroupSpec, gi int) string {
	if g.Name != "" {
		return g.Name
	}
	return fmt.Sprintf("g%d", gi)
}

// machineTopo resolves the spec's machine topology — the single
// source of the topology→hardware mapping, shared by validation (the
// oversub axis denominator) and the compiler's machine configuration.
func (s *Spec) machineTopo() topo.Topology {
	if s.Machine.Topology == "corei7" {
		return topo.CoreI7()
	}
	return topo.Xeon()
}

// machineContexts returns the hardware-context count of the spec's
// machine — the denominator of the oversubscription-factor axis.
func (s *Spec) machineContexts() int {
	return s.machineTopo().NumContexts()
}

// oversubThreads resolves an oversubscription factor into a thread
// count on a machine with ctx hardware contexts.
func oversubThreads(f float64, ctx int) int {
	return int(math.Round(f * float64(ctx)))
}

// uniqueAxis rejects overlapping (duplicate) values within one sweep
// axis and applies the per-value check.
func uniqueAxis[T comparable](spec, axis string, vals []T, check func(T) error) error {
	seen := make(map[T]bool, len(vals))
	for _, v := range vals {
		if seen[v] {
			return fmt.Errorf("scenario %s: sweep.%s axis has overlapping values: %v appears twice", spec, axis, v)
		}
		seen[v] = true
		if err := check(v); err != nil {
			return fmt.Errorf("scenario %s: sweep.%s axis: %w", spec, axis, err)
		}
	}
	return nil
}
