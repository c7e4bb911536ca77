// Package opts is the single option surface shared by every benchmark
// consumer: one Options struct with one set of defaults, bound onto a
// CLI flag set (FromFlags) and finalized by one pass (Flags.Options:
// the composite values, then NormalizeAndValidate). An HTTP URL query
// (ApplyQuery) goes through the same flags: each parameter sets the
// flag it names, so "-seed 010" and "?seed=010" are one seed (8), and
// a knob added here parses, defaults and validates alike everywhere.
// Options embeds the run's own options (experiments.Options, which is
// sweep.Options), so a bound flag or query parameter is the field the
// engine reads, with no copy in between. The CLI (lockbench) and the
// benchmark service (internal/serve) both assemble their runs through
// this package.
//
// Flag names and URL query parameters correspond one-to-one: -seed ↔
// seed, -scale ↔ scale, -quick ↔ quick, -workers ↔ workers, -slice ↔
// slice, -project ↔ project, -tol ↔ tol, -tol-cols ↔ tol_cols. The
// -shard and -cells flags are deliberately CLI-only: a cell range is a
// process-level concern of distributed regeneration, and the service
// always runs full grids. So are -cpuprofile and -memprofile: a
// profile is a file of the process that runs, not a run option. The
// service's own knobs (listen address, cache, pool) are
// serve.Config's fields, which `lockbench serve` binds its flags onto.
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
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"lockin/internal/experiments"
	"lockin/internal/results"
	"lockin/internal/sweep"
)

// Options is every knob shared between the CLI and the HTTP service.
// The zero value is not the canonical default — start from Defaults().
type Options struct {
	// Options is the run itself: seed, scale, quick, workers and the
	// cell range (RangeLo/RangeHi/RangeTotal, the only partition of a
	// run, never set from a URL query). The fleet worker executes
	// leased chunks through the range; on the CLI, -cells lo-hi/total
	// sets it directly and -shard i/n sets the range [i, i+1) of total
	// n. Progress, Stats and the other engine hooks are the caller's
	// to attach.
	experiments.Options
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
	// exit (see StartProfiles). Empty disables. CLI flags only.
	CPUProfile string
	MemProfile string
}

// Defaults returns the option values every consumer starts from: the
// sweep engine's defaults (sweep.DefaultOptions), full grids, one
// worker per CPU.
func Defaults() Options { return Options{Options: sweep.DefaultOptions()} }

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

// FromFlags binds the shared option surface — the run flags
// (BindRunFlags), profiles, cell ranges (-shard, -cells), axis queries
// and diff tolerances — onto fs with the canonical names, defaults and
// help strings.
func FromFlags(fs *flag.FlagSet) *Flags {
	f := &Flags{opts: Defaults()}
	BindRunFlags(fs, &f.opts.Options)
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

// BindRunFlags binds the flags of every command that starts a run —
// -seed, -scale, -quick and -workers — onto o, with o's values as the
// defaults and the canonical help strings.
func BindRunFlags(fs *flag.FlagSet, o *experiments.Options) {
	fs.Int64Var(&o.Seed, "seed", o.Seed, "simulation RNG seed")
	fs.Float64Var(&o.Scale, "scale", o.Scale, "measurement-window multiplier")
	fs.BoolVar(&o.Quick, "quick", o.Quick, "trim sweep grids (CI mode)")
	fs.IntVar(&o.Workers, "workers", o.Workers, "parallel sweep workers (0 = all CPUs, 1 = serial)")
}

// Options finalizes the bound flags after the flag set was parsed (or
// ApplyQuery set them): the composite strings parse into their
// structured fields, then the whole struct passes NormalizeAndValidate.
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

// queryFlags maps each URL query parameter of the shared schema onto
// the flag FromFlags binds for it. The only spelling difference is
// tol_cols (URL keys avoid '-').
var queryFlags = map[string]string{
	"seed": "seed", "scale": "scale", "quick": "quick", "workers": "workers",
	"slice": "slice", "project": "project", "tol": "tol", "tol_cols": "tol-cols",
}

// ApplyQuery maps a URL query onto the options, strictly: a parameter
// outside the allowed subset of the shared schema is an error naming
// what IS accepted, never silently ignored (a typo'd ?scal=4 must not
// run at the default scale). Each parameter sets the flag FromFlags
// binds for it, on a fresh flag set, so a URL value parses exactly as
// the same value on the command line (?seed=010 is -seed 010) and
// Options() finalizes the result. When a parameter repeats, the last
// value wins. A handler can 400 with the returned error text directly.
func ApplyQuery(q url.Values, allowed ...string) (Options, error) {
	fs := flag.NewFlagSet("query", flag.ContinueOnError)
	f := FromFlags(fs)
	keys := make([]string, 0, len(q))
	for k := range q {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		name, known := queryFlags[k]
		if !known || !slices.Contains(allowed, k) {
			return f.opts, fmt.Errorf("unknown parameter %q (accepted: %s)", k, strings.Join(allowed, ", "))
		}
		vs := q[k]
		v := vs[len(vs)-1]
		if err := fs.Set(name, v); err != nil {
			return f.opts, fmt.Errorf("bad %s %q: %w", k, v, err)
		}
	}
	return f.Options()
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

// byteUnits maps the accepted -cache-max-bytes suffixes, case-
// insensitive: decimal (kB/MB/GB) and binary (KiB/MiB/GiB) families,
// plus a bare number or trailing "B" for bytes.
var byteUnits = map[string]int64{
	"": 1, "b": 1,
	"kb": 1e3, "mb": 1e6, "gb": 1e9,
	"kib": 1 << 10, "mib": 1 << 20, "gib": 1 << 30,
}

// ParseBytes parses a human byte size — "1048576", "512MiB", "2GB" —
// into bytes. An empty string is 0 (unbounded).
func ParseBytes(s string) (int64, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return 0, nil
	}
	i := 0
	for i < len(s) && (s[i] == '.' || (s[i] >= '0' && s[i] <= '9')) {
		i++
	}
	num, unit := s[:i], strings.ToLower(strings.TrimSpace(s[i:]))
	mult, ok := byteUnits[unit]
	if num == "" || !ok {
		return 0, fmt.Errorf("bad byte size %q: want <number>[B|kB|MB|GB|KiB|MiB|GiB]", s)
	}
	f, err := strconv.ParseFloat(num, 64)
	if err != nil || f < 0 || math.IsInf(f, 0) {
		return 0, fmt.Errorf("bad byte size %q: want a non-negative number", s)
	}
	n := f * float64(mult)
	if n >= 1<<63 { // float64(math.MaxInt64) is 2^63, which int64 cannot hold
		return 0, fmt.Errorf("bad byte size %q: overflows", s)
	}
	return int64(n), nil
}

// Tolerance assembles the diff tolerance of baseline comparisons.
func (o Options) Tolerance() results.Tolerance {
	return results.Tolerance{Default: o.Tol, Columns: o.TolCols}
}

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
		m.Axes = e.Axes(o.Options)
	}
	return m
}

// Run simulates experiment e under these options and returns the run
// as it is stored: RunMeta's metadata, the tables, and in Meta.Perf the
// simulation's wall time and cells. The cells count on o.Stats when the
// caller sets one, else on a Stats of the run's own. The CLI, the
// service and the fleet worker all produce their runs here.
func (o Options) Run(e experiments.Experiment) *results.Run {
	if o.Stats == nil {
		o.Stats = new(sweep.Stats)
	}
	start := time.Now()
	run := &results.Run{Meta: o.RunMeta(e), Tables: e.Run(o.Options)}
	run.Meta.Perf = results.NewPerf(time.Since(start), int(o.Stats.Cells()))
	return run
}
