// Command lockbench regenerates the paper's tables and figures on the
// simulated Xeon, runs declarative scenario specs, manages the
// persistent results store, and serves it all over HTTP.
//
// Usage:
//
//	lockbench -list
//	lockbench -experiment fig11
//	lockbench -experiment scenario:kyoto
//	lockbench -experiment all -scale 4 -seed 7 -workers 8
//
// Declarative scenarios (see README "Declarative scenarios"): bundled
// specs register as scenario:<name> experiments; -scenario runs a spec
// file without registering it, with every store flag available:
//
//	lockbench -scenario testdata/quick-scenario.json -workers 8
//	lockbench -scenario spec.json -json out/
//	lockbench -validate-scenarios
//
// Results store (save a baseline, rerun, diff):
//
//	lockbench -experiment fig10 -json out/
//	lockbench -experiment fig10 -baseline out/ -diff
//
// Scenario runs record the spec's content hash; diffing two runs of
// different spec revisions is refused with an error instead of
// reporting workload changes as regressions.
//
// Multi-process sharding (the union of the parts is byte-identical to
// an unsharded run; -shard i/n is the cell range -cells i-(i+1)/n):
//
//	lockbench -experiment fig10 -shard 0/2 -json s0/
//	lockbench -experiment fig10 -cells 1-2/2 -json s1/
//	lockbench -experiment fig10 -merge s0/,s1/ -json merged/
//
// Axis queries over multi-axis runs (see README "Axis queries"):
// -slice keeps one plane of the axis space, -project collapses onto an
// axis subset (mean aggregation), -load queries a stored run file
// without simulating. With a query active, -baseline/-diff compare
// plane-wise: axis metadata must match, and titles/notes/spec hashes
// are ignored, so a sliced plane of a folded spec diffs clean against
// the retired single-axis spec it absorbed. -baseline accepts a run
// file as well as a store directory:
//
//	lockbench -experiment scenario:hamsterdb -slice read=90 -baseline legacy/scenario-hamsterdb_rd.json -diff
//	lockbench -load ma/scenario-hamsterdb.json -project lock
//
// -scale lengthens every measurement window proportionally (1.0 = quick
// defaults, tens of millions of cycles per point; the paper's 10-second
// runs correspond to scale ≈ 1000 and take hours — store them with
// -json and let CI diff quick runs against them with -baseline -tol,
// plus -tol-cols for per-column overrides such as noisier percentile
// columns: -tol-cols 'p95(Kcyc)=0.05').
//
// -workers fans the independent grid cells of each experiment out
// across simulated machines in parallel (0 = one worker per CPU). The
// output is bit-identical for any worker count.
//
// The benchmark service (see README "Benchmark service") exposes the
// same experiments, options and store over HTTP, deduping submissions
// against a content-addressed run cache:
//
//	lockbench serve -addr :8080 -cache runs-cache/
//
// Every option is one shared surface (internal/bench/opts): -seed on
// the command line and ?seed= in a service URL are the same knob with
// the same default, parser and validation.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"lockin/internal/bench/opts"
	"lockin/internal/core"
	"lockin/internal/experiments"
	"lockin/internal/metrics"
	"lockin/internal/results"
	"lockin/internal/scenario"
	"lockin/internal/sweep"
)

func main() {
	// `lockbench serve` is a subcommand with its own flag set: the
	// service options (address, cache, pool) are deployment knobs, not
	// run options, and must not collide with the run surface.
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		runServe(os.Args[2:])
		return
	}
	// `coordinate` and `work` are the fleet subcommands: distributed
	// sweeps with work-stealing (see README "Distributed sweeps").
	if len(os.Args) > 1 && os.Args[1] == "coordinate" {
		runCoordinate(os.Args[2:])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "work" {
		runWork(os.Args[2:])
		return
	}

	var (
		list     = flag.Bool("list", false, "list available experiments and exit")
		id       = flag.String("experiment", "", "experiment id to run, or 'all'")
		scenFile = flag.String("scenario", "", "run a scenario spec file instead of a registered experiment")
		validate = flag.Bool("validate-scenarios", false, "parse and compile every bundled scenario spec, then exit")
		progress = flag.Bool("progress", false, "report per-cell sweep progress on stderr")
		jsonDir  = flag.String("json", "", "save each experiment's tables to <dir>/<id>.json (results store)")
		baseline = flag.String("baseline", "", "results-store directory to diff this run against")
		diffGate = flag.Bool("diff", false, "with -baseline: exit 1 when any difference survives the tolerance")
		mergeArg = flag.String("merge", "", "comma-separated shard store dirs: merge stored shards instead of simulating")
		loadArg  = flag.String("load", "", "query a stored run file instead of simulating (composes with -slice/-project/-json/-baseline/-diff)")
		traceArg = flag.String("trace", "", "diagnostic: 'cell=<idx>' simulates only that 1-based grid cell with lock tracing armed and prints its event timeline")
	)
	// The shared option surface — seed, scale, quick, workers, shard,
	// slice, project, tol, tol-cols — binds with its canonical names,
	// defaults and help strings; the service accepts the same schema as
	// URL query parameters.
	shared := opts.FromFlags(flag.CommandLine)
	flag.Parse()

	if *validate {
		validateScenarios()
		return
	}

	o, err := shared.Options()
	if err != nil {
		fmt.Fprintf(os.Stderr, "lockbench: %v\n", err)
		os.Exit(2)
	}
	stopProf, err := o.StartProfiles()
	if err != nil {
		fmt.Fprintf(os.Stderr, "lockbench: %v\n", err)
		os.Exit(2)
	}
	defer stopProf()
	q := o.Query()
	if *diffGate && *baseline == "" {
		fmt.Fprintln(os.Stderr, "lockbench: -diff needs -baseline <dir or run.json>")
		os.Exit(2)
	}

	// Query a stored run: no simulation at all, just load → slice/
	// project → print/save/diff.
	if *loadArg != "" {
		queryStored(*loadArg, o, q, *id, *scenFile, *mergeArg, *jsonDir, *baseline, *diffGate)
		return
	}

	// Trace one cell: a diagnostic run, not a result run — it excludes
	// every store/compare mode so a partial (one-cell) run can never be
	// saved or diffed as if it were complete.
	if *traceArg != "" {
		cell, err := parseTraceArg(*traceArg)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		if *id == "all" || (*id == "" && *scenFile == "") || *mergeArg != "" || o.Partial() ||
			*jsonDir != "" || *baseline != "" || q.Active() {
			fmt.Fprintln(os.Stderr, "lockbench: -trace inspects one cell of one experiment; it excludes 'all', -merge, -shard, -cells, -json, -baseline, -slice and -project")
			os.Exit(2)
		}
		runTraced(selectExperiments(*id, *scenFile, o)[0], o, cell)
		return
	}

	if *list || (*id == "" && *scenFile == "") {
		listExperiments()
		if *id == "" && *scenFile == "" && !*list {
			fmt.Fprintln(os.Stderr, "\nuse -experiment <id> (or 'all'), or -scenario <spec.json>, to run one")
			os.Exit(2)
		}
		return
	}

	if *baseline != "" && o.Partial() {
		fmt.Fprintln(os.Stderr, "lockbench: -baseline compares full runs; merge the partial runs first (-merge)")
		os.Exit(2)
	}
	if q.Active() && o.Partial() {
		fmt.Fprintln(os.Stderr, "lockbench: -slice/-project query full runs; merge the partial runs first (-merge)")
		os.Exit(2)
	}
	if *mergeArg != "" && o.Partial() {
		fmt.Fprintln(os.Stderr, "lockbench: -merge and -shard/-cells are mutually exclusive")
		os.Exit(2)
	}

	todo := selectExperiments(*id, *scenFile, o)

	differs := false
	for _, e := range todo {
		var run *results.Run
		if *mergeArg != "" {
			run, err = mergeStored(e, strings.Split(*mergeArg, ","))
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			run, err = q.Apply(run)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Printf("### %s — %s (merged from stored shards)\n\n", e.ID, e.Title)
			printTables(run.Tables)
		} else {
			run = simulate(e, o, q, *progress)
		}

		if *jsonDir != "" {
			path, err := results.Save(*jsonDir, run)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Printf("### saved %s\n\n", path)
		}
		if *baseline != "" && diffBaseline(run, e.ID, *baseline, q, o) {
			differs = true
		}
	}
	if differs && *diffGate {
		fmt.Fprintln(os.Stderr, "lockbench: differences against baseline")
		stopProf() // os.Exit skips the deferred stop
		os.Exit(1)
	}
}

// queryStored is the -load path: answer slice/project/save/diff from a
// stored run file without simulating.
func queryStored(path string, o opts.Options, q opts.Query, id, scenFile, mergeArg, jsonDir, baseline string, diffGate bool) {
	if id != "" || scenFile != "" || o.RangeTotal > 0 || mergeArg != "" {
		fmt.Fprintln(os.Stderr, "lockbench: -load queries a stored run; it excludes -experiment/-scenario/-shard/-cells/-merge")
		os.Exit(2)
	}
	run, err := results.Load(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	// Queries refuse partial runs themselves; the plain diff path must
	// too, or a partial run diffs against a full baseline and every
	// missing row reads as a regression.
	if run.Meta.Range != nil && baseline != "" {
		fmt.Fprintf(os.Stderr, "lockbench: %s covers only cells %s; merge the ranges first (-merge)\n",
			path, run.Meta.Range)
		os.Exit(2)
	}
	run, err = q.Apply(run)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("### %s (loaded from %s)\n\n", run.Meta.Experiment, path)
	printTables(run.Tables)
	if jsonDir != "" {
		saved, err := results.Save(jsonDir, run)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("### saved %s\n\n", saved)
	}
	if baseline != "" {
		if diffBaseline(run, run.Meta.Experiment, baseline, q, o) && diffGate {
			fmt.Fprintln(os.Stderr, "lockbench: differences against baseline")
			os.Exit(1)
		}
	}
}

// selectExperiments resolves -experiment/-scenario into the list of
// experiments to run — every one for 'all', else the one job
// (opts.Job.Resolve).
func selectExperiments(id, scenFile string, o opts.Options) []experiments.Experiment {
	if id == "all" && scenFile == "" {
		return experiments.All()
	}
	job := opts.Job{Experiment: id, Seed: o.Seed, Scale: o.Scale, Quick: o.Quick, Workers: o.Workers}
	if scenFile != "" {
		data, err := os.ReadFile(scenFile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "lockbench: read scenario spec: %v\n", err)
			os.Exit(2)
		}
		job.Scenario = data
	}
	e, _, err := job.Resolve()
	if err != nil {
		fmt.Fprintf(os.Stderr, "lockbench: %v\n", err)
		os.Exit(2)
	}
	return []experiments.Experiment{e}
}

// simulate runs one experiment under the shared options and returns
// the (possibly sliced/projected) run, printing its tables.
func simulate(e experiments.Experiment, o opts.Options, q opts.Query, progress bool) *results.Run {
	eo := o.Options
	var stats sweep.Stats
	eo.Stats = &stats
	if progress {
		eID := e.ID
		workers := eo.WorkerCount()
		eo.Progress = func(done, total int) {
			if done == total {
				fmt.Fprintf(os.Stderr, "\r%s: %d/%d cells\n", eID, done, total)
				return
			}
			// ETA from the engine's busy-time counters: mean simulated
			// cost per completed cell, spread over the worker pool. Noisy
			// early (few samples, skewed grids) but self-correcting.
			line := fmt.Sprintf("\r%s: %d/%d cells", eID, done, total)
			if cells := stats.Cells(); cells > 0 {
				perCell := stats.Busy() / time.Duration(cells)
				eta := perCell * time.Duration(total-done) / time.Duration(workers)
				line += fmt.Sprintf(" (eta %v)   ", eta.Round(time.Second))
			}
			fmt.Fprint(os.Stderr, line)
		}
	}
	start := time.Now()
	fmt.Printf("### %s — %s\n", e.ID, e.Title)
	fmt.Printf("### paper: %s\n\n", e.Paper)
	meta := o.RunMeta(e)
	// Reject a bad query against the declared axes BEFORE the
	// simulation: a typo'd axis or value must cost milliseconds,
	// not discard an hours-long -scale run.
	if q.Active() {
		if err := results.ValidateQuery(meta.Axes, q.Fixes, q.Keep); err != nil {
			fmt.Fprintf(os.Stderr, "%v (experiment %s)\n", err, e.ID)
			os.Exit(1)
		}
	}
	run := &results.Run{Meta: meta, Tables: e.Run(eo)}
	run, err := q.Apply(run)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	printTables(run.Tables)
	// The cells/sec rate tracks the simulator's raw speed. CI output
	// gates strip "done in" lines, so the wall-clock-dependent rate never
	// breaks byte-identity checks.
	elapsed := time.Since(start)
	cells := int(stats.Cells())
	// Provenance rides in Meta.Perf when the run is stored: excluded
	// from cache identity and comparisons (see results.Meta), so it
	// annotates without perturbing byte-identity.
	run.Meta.Perf = results.NewPerf(elapsed, cells)
	if cells > 0 && elapsed > 0 {
		fmt.Printf("### %s done in %v (%d cells, %.1f cells/sec)\n\n",
			e.ID, elapsed.Round(time.Millisecond), cells, float64(cells)/elapsed.Seconds())
	} else {
		fmt.Printf("### %s done in %v\n\n", e.ID, elapsed.Round(time.Millisecond))
	}
	return run
}

// parseTraceArg parses the -trace value: cell=<1-based index>.
func parseTraceArg(s string) (int, error) {
	rest, ok := strings.CutPrefix(s, "cell=")
	if !ok {
		return 0, fmt.Errorf("lockbench: bad -trace %q, want cell=<index>", s)
	}
	n, err := strconv.Atoi(rest)
	if err != nil || n < 1 {
		return 0, fmt.Errorf("lockbench: bad -trace cell index %q, want a positive integer", rest)
	}
	return n, nil
}

// traceRenderMax bounds the printed timeline per lock; the recorder
// ring retains more (traceCapacity) for the query helpers.
const (
	traceCapacity  = 4096
	traceRenderMax = 200
)

// runTraced is the -trace path: simulate exactly one grid cell with
// the core trace-capture hook armed, then print each instrumented
// lock's timeline. The cell keeps its full-grid seed (sweep.Options
// OnlyCell), so the traced execution is the same one the full run
// simulates.
func runTraced(e experiments.Experiment, o opts.Options, cell int) {
	eo := o.Options
	eo.OnlyCell = cell
	eo.Workers = 1 // one cell; a worker pool would only interleave arming
	var stats sweep.Stats
	eo.Stats = &stats

	fmt.Printf("### %s — %s\n### trace cell %d\n\n", e.ID, e.Title, cell)
	stop := core.CaptureTraces(traceCapacity)
	tabs := e.Run(eo)
	recs := stop()
	if stats.Cells() == 0 {
		fmt.Fprintf(os.Stderr, "lockbench: %s has no cell %d — the grid is smaller\n", e.ID, cell)
		os.Exit(1)
	}
	printTables(tabs)
	if len(recs) == 0 {
		fmt.Println("### no locks instrumented (the cell built its locks outside core.New)")
		return
	}
	for i, r := range recs {
		fmt.Printf("--- lock %d/%d: %d events retained\n", i+1, len(recs), r.Len())
		if r.Len() > traceRenderMax {
			fmt.Printf("    (showing the last %d)\n", traceRenderMax)
		}
		fmt.Print(r.Render(traceRenderMax))
		fmt.Println()
	}
}

// listExperiments prints every registered experiment — the built-in
// paper figures and the dynamically registered scenario:* specs — with
// its description, sorted by id for stable output.
func listExperiments() {
	fmt.Println("experiments (one per paper table/figure; scenario:* compiled from bundled specs):")
	for _, id := range experiments.IDs() {
		e, err := experiments.Find(id)
		if err != nil {
			continue // unreachable: IDs() comes from the registry
		}
		fmt.Printf("  %-22s %s\n", e.ID, e.Title)
		fmt.Printf("  %-22s %s\n", "", e.Paper)
	}
}

// validateScenarios re-parses and compiles every bundled spec,
// printing one line per scenario — the CI guard that the shipped
// bundle stays loadable.
func validateScenarios() {
	cs, err := scenario.Bundled()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	for _, c := range cs {
		fmt.Printf("ok %-24s spec %s  (%d locks, %d groups)\n", c.ID(), c.Hash, len(c.Spec.Locks), len(c.Spec.Groups))
	}
	fmt.Printf("%d bundled scenarios validated\n", len(cs))
}

func printTables(tabs []*metrics.Table) {
	for _, t := range tabs {
		fmt.Println(t)
	}
}

// loadBaseline loads the comparison target: a run file directly when
// the argument names a .json file, else the experiment's unsharded run
// in a store directory. The two failure modes stay distinct: a .json
// path that does not exist is a missing file, while a directory
// argument distinguishes "no such store directory" from "store exists
// but holds no run for this experiment" (results.LoadExperiment).
func loadBaseline(arg, experiment string) (*results.Run, error) {
	if strings.HasSuffix(arg, ".json") {
		run, err := results.Load(arg)
		if err != nil && errors.Is(err, fs.ErrNotExist) {
			return nil, fmt.Errorf("baseline run file %s does not exist — save one first with -json, or pass its store directory", arg)
		}
		return run, err
	}
	return results.LoadExperiment(arg, experiment)
}

// diffBaseline compares a (possibly sliced/projected) run against its
// baseline (opts.Query.Compare) and reports whether differences
// survived the tolerance. A baseline that is missing or cannot be
// compared prints its error and counts as a difference, so that a run
// of several experiments still compares every other one and -diff
// fails at the end.
func diffBaseline(run *results.Run, id, baselineArg string, q opts.Query, o opts.Options) bool {
	base, err := loadBaseline(baselineArg, id)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return true
	}
	rep, err := q.Compare(base, run, o.Tolerance())
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return true
	}
	fmt.Printf("### %s vs baseline %s (tol %g): %s\n", id, baselineArg, o.Tol, strings.TrimRight(rep.String(), "\n"))
	return !rep.Empty()
}

// mergeStored loads the stored partial runs of one experiment — cell
// ranges, or the shards older stores hold (results.Decode reads them
// as ranges) — from the given store directories, reassembles the full
// grid and reduces it to the published tables.
func mergeStored(e experiments.Experiment, dirs []string) (*results.Run, error) {
	// The store file name sanitizes the id (scenario:* ids), so derive
	// the glob prefix from the same mapping Save uses.
	base := strings.TrimSuffix(results.Meta{Experiment: e.ID}.Filename(), ".json")
	var shards []*results.Run
	for _, dir := range dirs {
		dir = strings.TrimSpace(dir)
		if dir == "" {
			continue
		}
		matches, err := filepath.Glob(filepath.Join(dir, base+".shard*.json"))
		if err != nil {
			return nil, fmt.Errorf("lockbench: scan %s: %w", dir, err)
		}
		ranges, err := filepath.Glob(filepath.Join(dir, base+".cells*.json"))
		if err != nil {
			return nil, fmt.Errorf("lockbench: scan %s: %w", dir, err)
		}
		matches = append(matches, ranges...)
		if len(matches) == 0 {
			// Accept an unsharded file too, so a 1-shard "merge" works.
			matches = []string{filepath.Join(dir, base+".json")}
		}
		sort.Strings(matches)
		for _, m := range matches {
			r, err := results.Load(m)
			if err != nil {
				return nil, err
			}
			shards = append(shards, r)
		}
	}
	if len(shards) == 1 && shards[0].Meta.Range == nil {
		return shards[0], nil // a whole run, already reduced
	}
	run, err := results.Merge(shards...)
	if err != nil {
		return nil, err
	}
	run.Tables = e.Fold(run.Tables)
	return run, nil
}
