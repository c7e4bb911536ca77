// Command lockinbench is lockin's benchmark. Five workloads together
// exercise every layer — the simulator kernel, coherence, futex,
// scheduler, power, the lock algorithms, the sweep engine, the
// experiments, the results store, the service and the fleet — each
// driven from outside through the packages' public functions. Every run
// checks its outputs against golden digests (or, for a seed without
// them, that its repetitions agree) and counts wrong outputs as failed
// operations.
//
// Run it from this directory:
//
//	go run .                                 # every workload, each in its own process
//	go run . -workload spin-storm -seed 7    # one workload, in this process
//	go run . -trace 1 -out res/              # again with CPU profiles and spans: per-layer metrics
//	go run . -out a/ ; go run . -out b/      # two sets of result files ...
//	go run . -compare a/ b/                  # ... and a verdict per workload and metric
//	go run . -update-golden golden -seed 42  # rewrite golden/seed-42.json
//
// or from the repository root with bash lockinbench/run.sh and the same
// flags. The last line of a single-workload run is one JSON object:
// {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// buildDir holds everything the benchmark writes, relative to where it
// runs; the repository ignores it.
const buildDir = ".bench_build"

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("lockinbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run this workload in this process (default: every workload, each in a child process)")
	seed := fs.Int64("seed", 42, "seed every generated input derives from")
	seconds := fs.Float64("seconds", 20, "length of each workload's timed phase")
	trace := fs.Int("trace", 0, "1: profile and trace the run and report per-layer metrics instead of end-to-end ones")
	out := fs.String("out", "", "directory for result files, profiles, spans and layer shares (default "+buildDir+"/out/<time>)")
	compare := fs.Bool("compare", false, "compare two directories of result files, given as arguments")
	update := fs.String("update-golden", "", "write the golden digests of -seed into this directory")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "lockinbench: -compare wants two result directories")
			return 2
		}
		if err := compareDirs(fs.Arg(0), fs.Arg(1), stdout); err != nil {
			fmt.Fprintln(stderr, "lockinbench:", err)
			return 1
		}
		return 0
	}
	if fs.NArg() != 0 || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fs.Usage()
		return 2
	}
	if *out == "" {
		*out = filepath.Join(buildDir, "out", time.Now().UTC().Format("20060102T150405Z"))
	}
	c := &config{seed: *seed, seconds: *seconds, size: 1, scratch: filepath.Join(buildDir, "tmp")}
	var err error
	switch {
	case *update != "":
		err = updateGolden(c, *update, stdout, stderr)
	case *name != "":
		return runOne(c, *name, *trace == 1, *out, stdout, stderr)
	default:
		err = runAll(c, *trace == 1, *out, stdout, stderr)
	}
	if err != nil {
		fmt.Fprintln(stderr, "lockinbench:", err)
		return 1
	}
	return 0
}

// runOne runs a single workload in this process, stores its result file
// under out, prints its metrics and, last, its summary line. It exits
// non-zero when any output was wrong.
func runOne(c *config, name string, traced bool, out string, stdout, stderr io.Writer) int {
	w, err := findWorkload(name)
	if err != nil {
		fmt.Fprintln(stderr, "lockinbench:", err)
		return 2
	}
	tag := fmt.Sprintf("%s-seed%d-trace%d-%s", name, c.seed, btoi(traced), time.Now().UTC().Format("20060102T150405.000000000Z"))
	if traced {
		c.tracer = newTracer(name)
		c.out = filepath.Join(out, tag)
	}
	r, err := runWorkload(w, c)
	if err != nil {
		fmt.Fprintln(stderr, "lockinbench:", err)
		return 1
	}
	if err := os.MkdirAll(out, 0o755); err == nil {
		err = writeJSON(filepath.Join(out, tag+".json"), r)
	}
	if err != nil {
		fmt.Fprintln(stderr, "lockinbench: result file:", err)
		return 1
	}
	printResult(stdout, r)
	line, err := json.Marshal(r.summary())
	if err != nil {
		fmt.Fprintln(stderr, "lockinbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !r.Correct {
		return 1
	}
	return 0
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// printResult prints a run's metrics by name, with units, and its
// failure count.
func printResult(w io.Writer, r *result) {
	fmt.Fprintf(w, "# %s seed %d: %d rounds, %d ops, %d failed (error rate %.4g)\n",
		r.Workload, r.Seed, len(r.RoundS), r.Attempted, r.Failed, float64(r.Failed)/float64(r.Attempted))
	for _, n := range r.Notes {
		fmt.Fprintf(w, "# note: %s\n", n)
	}
	for _, d := range append(append([]metricDecl(nil), endToEnd...), perLayer...) {
		if v, ok := r.Metrics[d.Name]; ok {
			fmt.Fprintf(w, "%-32s %14.6g %s\n", d.Name, v.Value, v.Unit)
		}
	}
}

// runAll runs every workload once, each in a fresh child process so that
// process-wide counters, peak RSS and GC state cannot leak from one
// workload into the next. Traced, it then runs each again with tracing
// and reports the tracing overhead.
func runAll(c *config, traced bool, out string, stdout, stderr io.Writer) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	passes := []bool{false}
	if traced {
		passes = append(passes, true)
	}
	plain := map[string]float64{} // untraced ops_per_s by workload
	failed := false
	for _, tr := range passes {
		for _, w := range workloads {
			fmt.Fprintln(stdout)
			s, err := runChild(self, w.name, c, tr, out, stdout, stderr)
			if err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			failed = failed || !s.Correct
			if !tr {
				plain[w.name] = s.Metrics["ops_per_s"].Value
			} else if base := plain[w.name]; base > 0 {
				v := s.Metrics["bench.traced_ops_per_s"].Value
				fmt.Fprintf(stdout, "# %s tracing overhead: %.4g (traced %.6g vs untraced %.6g ops/s)\n", w.name, 1-v/base, v, base)
			}
		}
	}
	fmt.Fprintf(stdout, "\nresult files: %s\n", out)
	if failed {
		return fmt.Errorf("some outputs were wrong")
	}
	return nil
}

// runChild runs one workload in a child process, passing its output on,
// and returns the summary from the last line of that output.
func runChild(self, name string, c *config, traced bool, out string, stdout, stderr io.Writer) (summary, error) {
	cmd := exec.Command(self, "-workload", name, "-seed", fmt.Sprint(c.seed),
		"-seconds", fmt.Sprint(c.seconds), "-trace", fmt.Sprint(btoi(traced)), "-out", out)
	var buf bytes.Buffer
	cmd.Stdout = io.MultiWriter(stdout, &buf)
	cmd.Stderr = stderr
	runErr := cmd.Run()
	var last string
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		if t := strings.TrimSpace(sc.Text()); t != "" {
			last = t
		}
	}
	var s summary
	if err := json.Unmarshal([]byte(last), &s); err != nil {
		if runErr != nil {
			return s, runErr
		}
		return s, fmt.Errorf("no summary line: %w", err)
	}
	return s, nil
}

// updateGolden runs every workload at c.seed, in this process, and
// writes the digests of their outputs as the seed's golden file.
func updateGolden(c *config, dir string, stdout, stderr io.Writer) error {
	c.noGolden = true
	c.seconds = 0.001 // one repetition each; outputs do not depend on the length
	all := map[string]map[string]string{}
	for _, w := range workloads {
		fmt.Fprintf(stderr, "lockinbench: %s\n", w.name)
		r, err := runWorkload(w, c)
		if err != nil {
			return err
		}
		if !r.Correct {
			return fmt.Errorf("%s: repetitions disagree; not writing goldens", w.name)
		}
		all[w.name] = r.digests
	}
	path, err := writeGolden(dir, c.seed, all)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, "wrote", path)
	return nil
}
