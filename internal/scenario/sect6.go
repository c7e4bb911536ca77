package scenario

import (
	"fmt"
	"slices"

	"lockin/internal/experiments"
	"lockin/internal/metrics"
	"lockin/internal/sim"
	"lockin/internal/sweep"
	"lockin/internal/systems"
)

// SystemConfig is one (system, configuration) cell of the paper's
// Table 3: the point of a bundled spec's full (untrimmed) sweep grid
// where one axis holds one value.
type SystemConfig struct {
	System, Config string

	c     *Compiled
	axis  string
	value float64
}

// table3 lists Table 3 in the paper's order, each configuration as a
// bundled spec and the value of the axis that selects it. Memcached's
// three mixes are the memcached spec at 8 threads (oversub 0.2 of the
// Xeon's 40 contexts) with its GET and SET choices reweighted to the
// configuration's GET share, get (in percent; 0 keeps the spec's
// weights).
//
// The paper attributes every §6 effect to how each system uses pthread
// locks: HamsterDB and Kyoto serialize on one hot lock (sleeping
// "kills" throughput); Memcached mixes a hot cache lock with striped
// bucket locks; MySQL and SQLite oversubscribe threads to cores
// (spinning "kills" throughput and fair spinlocks collapse); RocksDB
// funnels writers through a condvar-based write queue, so the mutex
// choice barely matters. The specs encode exactly those patterns, and
// swapping the lock algorithm under them reproduces Figures 13-15.
var table3 = []struct {
	system, config, spec, axis string
	value                      float64
	get                        int
}{
	{"HamsterDB", "WT", "hamsterdb", "read", 10, 0},
	{"HamsterDB", "WT/RD", "hamsterdb", "read", 50, 0},
	{"HamsterDB", "RD", "hamsterdb", "read", 90, 0},
	{"Kyoto", "CACHE", "kyoto", "cs", 3200, 0},
	{"Kyoto", "HT DB", "kyoto", "cs", 3600, 0},
	{"Kyoto", "B-TREE", "kyoto", "cs", 4500, 0},
	{"Memcached", "SET", "memcached", "oversub", 0.2, 10},
	{"Memcached", "SET/GET", "memcached", "oversub", 0.2, 50},
	{"Memcached", "GET", "memcached", "oversub", 0.2, 90},
	{"MySQL", "MEM", "mysql_mem", "oversub", 1.6, 0},
	{"MySQL", "SSD", "mysql_ssd", "oversub", 1.6, 0},
	{"RocksDB", "WT", "rocksdb", "read", 10, 0},
	{"RocksDB", "WT/RD", "rocksdb", "read", 50, 0},
	{"RocksDB", "RD", "rocksdb", "read", 90, 0},
	{"SQLite", "16 CON", "sqlite", "threads", 16, 0},
	{"SQLite", "32 CON", "sqlite", "threads", 32, 0},
	{"SQLite", "64 CON", "sqlite", "threads", 64, 0},
}

// sect6Locks are the three locks of Figures 13-15.
var sect6Locks = []string{"MUTEX", "TICKET", "MUTEXEE"}

// sect6 is Table 3 bound to the compiled bundle at init.
var sect6 []SystemConfig

// Table3 returns the seventeen configurations of the paper's Table 3,
// in the paper's order.
func Table3() []SystemConfig { return slices.Clone(sect6) }

// ID returns "System/Config".
func (s SystemConfig) ID() string { return s.System + "/" + s.Config }

// Threads returns the configuration's thread count.
func (s SystemConfig) Threads() int {
	p, _ := s.params(sect6Locks[0]) // resolveTable3 checked it resolves
	return s.c.totalThreads(p)
}

// Run simulates the configuration under one kind of its spec's lock
// axis (MUTEX, TICKET or MUTEXEE) on a machine seeded with seed,
// measured for duration cycles after warmup. It panics on a lock the
// axis does not hold.
func (s SystemConfig) Run(lock string, seed int64, warmup, duration sim.Cycles) systems.Result {
	p, err := s.params(lock)
	if err != nil {
		panic(err)
	}
	res, _ := s.c.simulate(p, seed, warmup, duration)
	return res
}

// params resolves the configuration's grid point on the spec's full
// axes: its axis at its value, the lock axis at lock, and every other
// axis at its only value.
func (s SystemConfig) params(lock string) (cellParams, error) {
	ax := s.c.axes(false)
	space := ax.space()
	co := make([]int, len(space.Axes()))
	for i, a := range space.Axes() {
		switch a.Name {
		case s.axis:
			co[i] = slices.IndexFunc(a.Values, func(v metrics.Value) bool { n, ok := v.Num(); return ok && n == s.value })
		case "lock":
			co[i] = slices.IndexFunc(a.Values, func(v metrics.Value) bool { return v.Text() == lock })
		default:
			if a.Len() != 1 {
				return cellParams{}, fmt.Errorf("scenario %s: %s leaves axis %s unfixed", s.c.Spec.Name, s.ID(), a.Name)
			}
		}
		if co[i] < 0 {
			return cellParams{}, fmt.Errorf("scenario %s: %s is not a grid point (axis %s)", s.c.Spec.Name, s.ID(), a.Name)
		}
	}
	return ax.at(space, space.Index(co...)), nil
}

// resolveTable3 binds table3 to the compiled bundle, checking that
// every configuration is a grid point under each lock of the figures.
func resolveTable3(bundle []*Compiled) ([]SystemConfig, error) {
	out := make([]SystemConfig, len(table3))
	for i, t := range table3 {
		j := slices.IndexFunc(bundle, func(c *Compiled) bool { return c.Spec.Name == t.spec })
		if j < 0 {
			return nil, fmt.Errorf("scenario: Table 3 names no bundled spec %q", t.spec)
		}
		c := bundle[j]
		if t.get > 0 {
			var err error
			if c, err = withGetShare(c.Spec, t.get); err != nil {
				return nil, err
			}
		}
		out[i] = SystemConfig{System: t.system, Config: t.config, c: c, axis: t.axis, value: t.value}
		for _, l := range sect6Locks {
			if _, err := out[i].params(l); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// withGetShare recompiles a one-group spec with two choices, GET then
// SET, weighting them get and 100-get.
func withGetShare(s Spec, get int) (*Compiled, error) {
	if len(s.Groups) != 1 || len(s.Groups[0].Choices) != 2 {
		return nil, fmt.Errorf("scenario %s: a GET share needs one group of two choices", s.Name)
	}
	g := s.Groups[0]
	g.Choices = slices.Clone(g.Choices)
	g.Choices[0].Weight, g.Choices[1].Weight = get, 100-get
	s.Groups = []GroupSpec{g}
	return Compile(&s)
}

// only returns the Table 3 configurations whose system or ID is named,
// in table order.
func only(names ...string) []SystemConfig {
	var out []SystemConfig
	for _, s := range sect6 {
		if slices.Contains(names, s.System) || slices.Contains(names, s.ID()) {
			out = append(out, s)
		}
	}
	return out
}

// runSystems simulates every configuration under the three locks, one
// sweep cell per (configuration, lock) pair, configuration-major, and
// emits one row per cell: the throughput, TPP and p99 acquire latency
// that Figures 13, 14 and 15 normalize.
func runSystems(o experiments.Options, cfgs []SystemConfig) []*metrics.Table {
	t := metrics.NewTable("Table 3 systems, one row per lock",
		"system", "config", "lock", "throughput(ops/s)", "TPP(ops/J)", "p99(cycles)")
	g := sweep.NewGrid(o)
	for _, s := range cfgs {
		// Oversubscribed systems need several timeslice rotations for the
		// spinlock livelock to express itself.
		dur := sim.Cycles(10_000_000)
		if s.Threads() > 32 {
			dur = 60_000_000
		}
		for _, l := range sect6Locks {
			g.Add(func(c sweep.Cell) []sweep.Row {
				r := s.Run(l, c.Seed, o.Window(300_000), o.Window(dur))
				return []sweep.Row{{s.System, s.Config, l, r.Throughput(), r.TPP(), r.Latency.Percentile(0.99)}}
			})
		}
	}
	g.Into(t)
	return []*metrics.Table{t}
}

// normTable returns the Reduce step that renders column col of
// runSystems' rows normalized to MUTEX per configuration.
func normTable(title string, col int) func([]*metrics.Table) []*metrics.Table {
	return func(tabs []*metrics.Table) []*metrics.Table {
		rows := tabs[0].Cells()
		id := func(r []metrics.Value) string { return r[0].Text() + "/" + r[1].Text() }
		t := metrics.NewTable(title, "system", "config", "lock", "value", "vs MUTEX")
		base := map[string]float64{}
		for _, r := range rows {
			if r[2].Text() == "MUTEX" {
				base[id(r)], _ = r[col].Num()
			}
		}
		sums := map[string]float64{}
		counts := map[string]int{}
		for _, r := range rows {
			b := base[id(r)]
			v, _ := r[col].Num()
			n := 0.0
			if b != 0 {
				n = v / b
			}
			lock := r[2].Text()
			sums[lock] += n
			counts[lock]++
			t.AddRow(r[0], r[1], r[2], v, n)
		}
		for _, k := range sect6Locks {
			if counts[k] > 0 {
				t.AddNote("%s average vs MUTEX: %.2f", k, sums[k]/float64(counts[k]))
			}
		}
		return []*metrics.Table{t}
	}
}

// registerSect6 adds Figures 13-15 to the experiment registry. Figures
// 13 and 14 share one grid; Figure 15 sweeps its own configurations,
// whose cells take seeds from their own indexes. Quick runs chart one
// configuration of three systems (Figures 13-14) or two (Figure 15).
func registerSect6() {
	fig1314 := func(o experiments.Options) []*metrics.Table {
		if o.Quick {
			return runSystems(o, only("HamsterDB/WT", "Memcached/SET/GET", "SQLite/64 CON"))
		}
		return runSystems(o, sect6)
	}
	experiments.Register(experiments.Experiment{
		ID:     "fig13",
		Title:  "Normalized throughput of the six systems with different locks",
		Paper:  "avg: TICKET 1.06x, MUTEXEE 1.26x over MUTEX; TICKET collapses on MySQL (0.01-0.16x) and SQLite 64 CON (0.25x)",
		Grid:   fig1314,
		Reduce: normTable("Figure 13 — normalized throughput (higher is better)", 3),
	})
	experiments.Register(experiments.Experiment{
		ID:     "fig14",
		Title:  "Normalized energy efficiency (TPP) of the six systems",
		Paper:  "avg: TICKET 1.05x, MUTEXEE 1.28x over MUTEX; improvements driven by throughput",
		Grid:   fig1314,
		Reduce: normTable("Figure 14 — normalized TPP (higher is better)", 4),
	})
	experiments.Register(experiments.Experiment{
		ID:    "fig15",
		Title: "Normalized 99th-percentile latency of four systems",
		Paper: "mostly better throughput → lower tail; HamsterDB RD: MUTEXEE ≈19x tail of MUTEX; TICKET terrible when oversubscribed",
		Grid: func(o experiments.Options) []*metrics.Table {
			if o.Quick {
				return runSystems(o, only("HamsterDB/RD", "SQLite/64 CON"))
			}
			return runSystems(o, only("HamsterDB", "Memcached", "MySQL", "SQLite"))
		},
		Reduce: normTable("Figure 15 — normalized p99 latency (lower is better)", 5),
	})
}
