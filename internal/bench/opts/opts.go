// Package opts is the single option surface shared by every benchmark
// consumer: one Options struct with one set of defaults, bindable onto
// a CLI flag set (FromFlags) and onto an HTTP URL query (ApplyQuery),
// with one validation pass (NormalizeAndValidate) behind both. The CLI
// (lockbench) and the benchmark service (internal/serve) both assemble
// their runs through this package, so "-scale 4" on a command line and
// "?scale=4" in a request
// are the same option by construction, and a knob added here shows up
// everywhere with identical parsing, defaults and error messages.
//
// Flag names and URL query parameters correspond one-to-one: -seed ↔
// seed, -scale ↔ scale, -quick ↔ quick, -workers ↔ workers, -slice ↔
// slice, -project ↔ project, -tol ↔ tol, -tol-cols ↔ tol_cols,
// -cpuprofile ↔ cpuprofile, -memprofile ↔ memprofile. The -shard and
// -cells flags are deliberately CLI-only: a cell range is a
// process-level concern of distributed regeneration, and the service
// always runs full grids. The service handlers likewise keep
// cpuprofile/memprofile out of their allowed query subsets: profiles
// are files of the serving process, not run options.
//
// Job is the run request every front end shares: an experiment id or
// scenario spec bytes plus the run options. lockbench, the service,
// the service's journal and the fleet all turn one into a run through
// Job.Resolve, so they validate and resolve requests identically.
package opts

import (
	"errors"
	"flag"
	"fmt"
	"math"
	"net/url"
	"sort"
	"strconv"
	"strings"

	"lockin/internal/experiments"
	"lockin/internal/results"
)

// Options is every knob shared between the CLI binaries and the HTTP
// service. The zero value is not the canonical default — start from
// Defaults().
type Options struct {
	// Seed is the base RNG seed; every grid cell derives its own
	// machine seed from it (sweep.CellSeed).
	Seed int64
	// Scale multiplies every measurement window (1.0 = quick defaults).
	Scale float64
	// Quick trims sweep grids for CI-style runs.
	Quick bool
	// Workers caps the number of grid cells simulated concurrently
	// (0 = all CPUs, 1 = serial). Results are identical for any value.
	Workers int
	// RangeLo/RangeHi/RangeTotal run one contiguous cell range of each
	// grid (active when RangeTotal > 0; see sweep.Options) — the only
	// partition of a run. The fleet worker executes leased chunks
	// through these; on the CLI, -cells lo-hi/total sets them directly
	// and -shard i/n sets the range [i, i+1) of total n. Never set from
	// a URL query.
	RangeLo    int
	RangeHi    int
	RangeTotal int
	// Slice fixes axes of a multi-axis run to values, keeping one plane.
	Slice []results.Fix
	// Project collapses a multi-axis run onto these axes (mean
	// aggregation of the folded cells).
	Project []string
	// Tol is the default relative per-cell tolerance for baseline
	// comparisons (0 = exact); TolCols overrides it per column header.
	Tol     float64
	TolCols map[string]float64
	// CPUProfile/MemProfile name files to write pprof profiles to: CPU
	// profiling covers the whole run, the heap profile is captured at
	// exit (see StartProfiles). Empty disables. Part of the shared
	// schema; the service's handlers deliberately exclude them from
	// their allowed query subsets — a profile is a local file of the
	// serving process, not a property of the run.
	CPUProfile string
	MemProfile string
}

// Defaults returns the option values every consumer starts from: the
// fixed default seed, unit scale, full grids, one worker per CPU.
func Defaults() Options { return Options{Seed: 42, Scale: 1.0} }

// Flags holds options bound onto a flag set but not yet finalized:
// scalar fields bind directly, composite flags (-shard, -slice,
// -project, -tol-cols) collect as strings and parse in Options().
type Flags struct {
	opts    Options
	shard   *string
	cells   *string
	slice   *string
	project *string
	tolCols *string
}

// FromFlags binds the shared option surface — seed, scale, quick,
// workers and profiles, plus cell ranges (-shard, -cells),
// axis queries and diff tolerances — onto fs with the canonical names,
// defaults and help strings.
func FromFlags(fs *flag.FlagSet) *Flags {
	f := &Flags{opts: Defaults()}
	fs.Int64Var(&f.opts.Seed, "seed", f.opts.Seed, "simulation RNG seed")
	fs.Float64Var(&f.opts.Scale, "scale", f.opts.Scale, "measurement-window multiplier")
	fs.BoolVar(&f.opts.Quick, "quick", false, "trim sweep grids (CI mode)")
	fs.IntVar(&f.opts.Workers, "workers", 0, "parallel sweep workers (0 = all CPUs, 1 = serial)")
	fs.StringVar(&f.opts.CPUProfile, "cpuprofile", "", "write a CPU pprof profile of the run to this file")
	fs.StringVar(&f.opts.MemProfile, "memprofile", "", "write a heap pprof profile at exit to this file")
	f.shard = fs.String("shard", "", "run one shard of each grid, format i/n (e.g. 0/2)")
	f.cells = fs.String("cells", "", "run one contiguous cell range of each grid, format lo-hi/total (e.g. 3-7/12; -shard i/n equals i-(i+1)/n)")
	f.slice = fs.String("slice", "", "fix axes of a multi-axis run, comma-separated axis=value (e.g. 'read=90'); keeps only that plane's rows")
	f.project = fs.String("project", "", "collapse a multi-axis run onto these axes, comma-separated (e.g. 'read,lock'); other axes aggregate away (mean)")
	fs.Float64Var(&f.opts.Tol, "tol", 0, "relative per-cell tolerance for -baseline comparisons (0 = exact)")
	f.tolCols = fs.String("tol-cols", "", "per-column tolerance overrides for -baseline, comma-separated name=rel (e.g. 'p95(Kcyc)=0.05,thr(Kacq/s)=0.02'); other columns use -tol")
	return f
}

// Options finalizes the bound flags after the flag set was parsed: the
// composite strings parse into their structured fields, then the whole
// struct passes NormalizeAndValidate.
func (f *Flags) Options() (Options, error) {
	o := f.opts
	var err error
	if o.RangeLo, o.RangeHi, o.RangeTotal, err = ParseCells(*f.cells); err != nil {
		return o, err
	}
	if *f.shard != "" {
		if o.RangeTotal > 0 {
			return o, errors.New("-shard and -cells are two spellings of the same split; give one")
		}
		// -shard i/n is the cell range [i, i+1) of total n.
		i, n, err := ParseShard(*f.shard)
		if err != nil {
			return o, err
		}
		o.RangeLo, o.RangeHi, o.RangeTotal = i, i+1, n
	}
	if o.Slice, err = ParseSlice(*f.slice); err != nil {
		return o, err
	}
	if o.Project, err = ParseProject(*f.project); err != nil {
		return o, err
	}
	if o.TolCols, err = ParseTolCols(*f.tolCols); err != nil {
		return o, err
	}
	if err := o.NormalizeAndValidate(); err != nil {
		return o, err
	}
	return o, nil
}

// queryParsers maps each URL query parameter of the shared schema onto
// its field parser. Keys are the canonical parameter names; the only
// spelling difference from the flags is tol_cols (URL keys avoid '-').
var queryParsers = map[string]func(*Options, string) error{
	"seed": func(o *Options, v string) error {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return fmt.Errorf("bad seed %q: want an integer", v)
		}
		o.Seed = n
		return nil
	},
	"scale": func(o *Options, v string) error {
		fl, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return fmt.Errorf("bad scale %q: want a number", v)
		}
		o.Scale = fl
		return nil
	},
	"quick": func(o *Options, v string) error {
		b, err := strconv.ParseBool(v)
		if err != nil {
			return fmt.Errorf("bad quick %q: want a boolean (true/false/1/0)", v)
		}
		o.Quick = b
		return nil
	},
	"workers": func(o *Options, v string) error {
		n, err := strconv.Atoi(v)
		if err != nil {
			return fmt.Errorf("bad workers %q: want an integer", v)
		}
		o.Workers = n
		return nil
	},
	"slice": func(o *Options, v string) error {
		fixes, err := ParseSlice(v)
		if err != nil {
			return err
		}
		o.Slice = fixes
		return nil
	},
	"project": func(o *Options, v string) error {
		keep, err := ParseProject(v)
		if err != nil {
			return err
		}
		o.Project = keep
		return nil
	},
	"tol": func(o *Options, v string) error {
		fl, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return fmt.Errorf("bad tol %q: want a number", v)
		}
		o.Tol = fl
		return nil
	},
	"tol_cols": func(o *Options, v string) error {
		cols, err := ParseTolCols(v)
		if err != nil {
			return err
		}
		o.TolCols = cols
		return nil
	},
	"cpuprofile": func(o *Options, v string) error {
		o.CPUProfile = v
		return nil
	},
	"memprofile": func(o *Options, v string) error {
		o.MemProfile = v
		return nil
	},
}

// ApplyQuery maps a URL query onto the options, strictly: a parameter
// outside the shared schema — or outside the allowed subset, when one
// is given — is an error naming what IS accepted, never silently
// ignored (a typo'd ?scal=4 must not run at the default scale). When a
// parameter repeats, the last value wins. The result passes
// NormalizeAndValidate, so a handler can 400 with the returned error
// text directly.
func ApplyQuery(def Options, q url.Values, allowed ...string) (Options, error) {
	o := def
	ok := func(string) bool { return true }
	if len(allowed) > 0 {
		set := make(map[string]bool, len(allowed))
		for _, k := range allowed {
			set[k] = true
		}
		ok = func(k string) bool { return set[k] }
	}
	keys := make([]string, 0, len(q))
	for k := range q {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		parse, known := queryParsers[k]
		if !known || !ok(k) {
			accepted := allowed
			if len(accepted) == 0 {
				accepted = QueryKeys()
			}
			return o, fmt.Errorf("unknown parameter %q (accepted: %s)", k, strings.Join(accepted, ", "))
		}
		vs := q[k]
		if err := parse(&o, vs[len(vs)-1]); err != nil {
			return o, err
		}
	}
	if err := o.NormalizeAndValidate(); err != nil {
		return o, err
	}
	return o, nil
}

// QueryKeys returns the sorted URL parameter names of the shared
// schema.
func QueryKeys() []string {
	keys := make([]string, 0, len(queryParsers))
	for k := range queryParsers {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// maxScale bounds Scale. README puts the paper's 10-second runs at
// scale ≈ 1000. Scenario specs bound their windows to 1e12 cycles, so
// every scaled window stays below 2^63 cycles, where converting it
// from float64 to sim.Cycles is defined.
const maxScale = 1e6

// NormalizeAndValidate folds harmless out-of-range values onto their
// canonical forms (a negative worker count means "all CPUs") and
// rejects options that would silently corrupt a run or its stored
// results. Every assembly path — flags and URL queries — funnels
// through it, so the CLI and the service accept exactly the same
// option space.
func (o *Options) NormalizeAndValidate() error {
	if o.Workers < 0 {
		o.Workers = 0
	}
	if !(o.Scale > 0) || o.Scale > maxScale {
		return fmt.Errorf("bad scale %v: want a positive, finite window multiplier of at most %g", o.Scale, maxScale)
	}
	// !(x >= 0) also rejects NaN, which would otherwise disable every
	// baseline comparison.
	if !(o.Tol >= 0) || math.IsInf(o.Tol, 0) {
		return fmt.Errorf("bad tol %v: want a non-negative, finite relative tolerance", o.Tol)
	}
	if o.RangeTotal < 0 || (o.RangeTotal > 0 &&
		(o.RangeLo < 0 || o.RangeHi < o.RangeLo || o.RangeHi > o.RangeTotal)) {
		return fmt.Errorf("bad cells %d-%d/%d: want 0 <= lo <= hi <= total", o.RangeLo, o.RangeHi, o.RangeTotal)
	}
	return nil
}

// ParseSlice parses the -slice flag / slice query parameter
// ("axis=value,axis=value") into axis fixes. An empty string is no
// slice.
func ParseSlice(s string) ([]results.Fix, error) {
	if s == "" {
		return nil, nil
	}
	var out []results.Fix
	for _, part := range strings.Split(s, ",") {
		a, v, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok || a == "" || v == "" {
			return nil, fmt.Errorf("bad slice %q: want axis=value pairs (e.g. 'read=90')", part)
		}
		out = append(out, results.Fix{Axis: a, Value: v})
	}
	return out, nil
}

// ParseProject parses the -project flag / project query parameter
// ("axis,axis") into the kept-axis list. An empty string is no
// projection.
func ParseProject(s string) ([]string, error) {
	if s == "" {
		return nil, nil
	}
	var out []string
	for _, part := range strings.Split(s, ",") {
		name := strings.TrimSpace(part)
		if name == "" {
			return nil, fmt.Errorf("bad project %q: want comma-separated axis names", s)
		}
		out = append(out, name)
	}
	return out, nil
}

// ParseTolCols parses the -tol-cols flag / tol_cols query parameter
// ("name=rel,name=rel") into per-column tolerance overrides. Column
// names are header cells ("p95(Kcyc)", "thr[readers](Kacq/s)") — they
// never contain '=' or ',', so splitting on those is unambiguous.
func ParseTolCols(s string) (map[string]float64, error) {
	if s == "" {
		return nil, nil
	}
	out := map[string]float64{}
	for _, part := range strings.Split(s, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok || name == "" {
			return nil, fmt.Errorf("bad tol_cols %q: want name=rel pairs", part)
		}
		f, err := strconv.ParseFloat(val, 64)
		// !(f >= 0) also rejects NaN, which would otherwise disable
		// every comparison on the column.
		if err != nil || !(f >= 0) || math.IsInf(f, 0) {
			return nil, fmt.Errorf("bad tol_cols %s: bad tolerance %q", name, val)
		}
		out[name] = f
	}
	return out, nil
}

// ParseShard parses "i/n" into (i, n); an empty argument is unsharded.
// Flags.Options turns a shard into the cell range [i, i+1) of total n.
func ParseShard(s string) (idx, count int, err error) {
	if s == "" {
		return 0, 0, nil
	}
	is, ns, ok := strings.Cut(s, "/")
	if ok {
		idx, err = strconv.Atoi(is)
		if err == nil {
			count, err = strconv.Atoi(ns)
		}
	}
	if !ok || err != nil {
		return 0, 0, fmt.Errorf("bad shard %q: want i/n (e.g. 0/2)", s)
	}
	if count < 1 || idx < 0 || idx >= count {
		return 0, 0, fmt.Errorf("bad shard %q: index out of range", s)
	}
	return idx, count, nil
}

// ParseCells parses "lo-hi/total" into a cell range in generalized
// shard coordinates; an empty argument is no range. -shard i/n is the
// special case i-(i+1)/n.
func ParseCells(s string) (lo, hi, total int, err error) {
	if s == "" {
		return 0, 0, 0, nil
	}
	rng, ts, ok := strings.Cut(s, "/")
	ls, hs, ok2 := strings.Cut(rng, "-")
	if ok && ok2 {
		lo, err = strconv.Atoi(ls)
		if err == nil {
			hi, err = strconv.Atoi(hs)
		}
		if err == nil {
			total, err = strconv.Atoi(ts)
		}
	}
	if !ok || !ok2 || err != nil {
		return 0, 0, 0, fmt.Errorf("bad cells %q: want lo-hi/total (e.g. 3-7/12)", s)
	}
	if total < 1 || lo < 0 || hi < lo || hi > total {
		return 0, 0, 0, fmt.Errorf("bad cells %q: want 0 <= lo <= hi <= total", s)
	}
	return lo, hi, total, nil
}

// Tolerance assembles the diff tolerance of baseline comparisons.
func (o Options) Tolerance() results.Tolerance {
	return results.Tolerance{Default: o.Tol, Columns: o.TolCols}
}

// ExperimentOptions lowers the shared options onto the experiment
// runner (the caller attaches its own Progress hook if it wants one).
func (o Options) ExperimentOptions() experiments.Options {
	return experiments.Options{
		Seed: o.Seed, Scale: o.Scale, Quick: o.Quick, Workers: o.Workers,
		RangeLo: o.RangeLo, RangeHi: o.RangeHi, RangeTotal: o.RangeTotal,
	}
}

// Partial reports whether these options run a strict subset of each
// grid — a cell range that does not cover [0,total) — so the output is
// a partial run that must be merged (results.Merge) before it can be
// compared or queried as a full run. It is the predicate by which
// experiments.Experiment.Run decides whether to reduce.
func (o Options) Partial() bool { return o.ExperimentOptions().Partial() }

// RunMeta assembles the results metadata of running experiment e under
// these options — one construction shared by the CLI and the HTTP
// service, so a stored run's bytes are identical no matter which
// front-end produced it.
func (o Options) RunMeta(e experiments.Experiment) results.Meta {
	m := results.Meta{
		Experiment: e.ID, Seed: o.Seed, Scale: o.Scale, Quick: o.Quick,
		Workers: o.Workers, Version: results.Version(), SpecHash: e.SpecHash,
	}
	if o.Partial() {
		m.Range = &results.CellRange{Lo: o.RangeLo, Hi: o.RangeHi, Total: o.RangeTotal}
	}
	if e.Axes != nil {
		m.Axes = e.Axes(o.ExperimentOptions())
	}
	return m
}
