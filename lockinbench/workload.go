package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"lockin/internal/futex"
	"lockin/internal/results"
	"lockin/internal/sim"
)

// config is what one workload run is given.
type config struct {
	seed    int64
	seconds float64 // length of the timed phase
	// size scales each workload's fixed work (1 = as declared). Only the
	// smoke test shrinks it; golden digests apply at size 1 alone.
	size    float64
	tracer  *tracer // nil for an untraced run
	out     string  // where a traced run writes its profile, spans and layer shares
	scratch string  // files a workload needs while it runs (the serve cache)
	// noGolden ignores the golden digests, so the run only checks that
	// its repetitions agree: how -update-golden regenerates them.
	noGolden bool
}

// benchWorkload is one named set of inputs with the reason it was chosen.
type benchWorkload struct {
	name string
	why  string
	// setup prepares the workload for its timed phase. It runs several
	// times per run; its median duration is setup_s.
	setup func(c *config, m *measurement) (instance, error)
}

// workloads are the benchmark's workloads; BENCHMARK.json lists the same
// names and reasons.
var workloads = []benchWorkload{
	{"spin-storm", "spinlocks only: coherence transfers, spin steps and power do all the work, with no futex wait, so futex and sched changes must read no change", setupSpinStorm},
	{"sleep-storm", "MUTEX and MUTEXEE up to 2x oversubscribed: futex wait/wake, scheduler and sleep power transitions do the work, the other side of the paper's argument", setupSleepStorm},
	{"paper-suite", "all 32 registered experiments, quick, on 2 sweep workers: what users run to regenerate the paper, and the only load on experiments aggregation", setupPaperSuite},
	{"serve-mixed", "in-process service, 2 closed-loop clients on an assumed mix (no usage data exists) of uncached submits, cache hits, queries and /metrics: store writes and reads share cores with simulations", setupServeMixed},
	{"fleet-skewed", "coordinator and 2 in-process workers on a grid whose cost rises with threads: survey, leases, chunk upload and merge-on-arrival, which only the fleet uses", setupFleetSkewed},
}

func findWorkload(name string) (benchWorkload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return benchWorkload{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// instance is one set-up workload.
type instance interface {
	// measure runs the timed phase until the deadline.
	measure(c *config, deadline time.Time, m *measurement) error
	// check runs the untimed checks and probes that follow the timed
	// phase.
	check(c *config, m *measurement) error
	close()
}

// measurement accumulates what a run observed. Only the goroutine that
// runs the workload touches it.
type measurement struct {
	attempted, failed int
	// opsPerS and latencyMs are the run's throughput and latency as its
	// workload's measure defines them, steal removed: ops_per_s and
	// latency_p50_ms before the host factor.
	opsPerS, latencyMs float64
	rounds, stolen     []float64 // wall seconds of each round, and the CPU seconds stolen from it
	calibrations       []float64 // seconds each calibration loop ran, steal removed
	peakRSS            float64   // MiB; 0 until read
	samples            map[string][]float64
	tails              map[string]tail
	ver                *verifier
	notes              []string
}

// add records one sample of a per-layer metric; the run reports the
// median of its samples.
func (m *measurement) add(name string, v float64) {
	m.samples[name] = append(m.samples[name], v)
}

// calibrate times the calibration loop once, with nothing else of the
// run executing: a full collection first, so that no marking of the
// run's garbage overlaps the loop.
func (m *measurement) calibrate() {
	runtime.GC()
	w := startWatch()
	calibrate()
	_, ran := w.stop()
	m.calibrations = append(m.calibrations, ran.Seconds())
}

// recalibrate times the calibration loop between two rounds or segments
// of an untraced run. A traced run does not: the loop and its forced
// collection would land in the CPU profile and in the go.* metrics,
// which cover the whole timed phase. Its host factor scales only
// bench.traced_ops_per_s, and the loops timed before the phase suffice
// for that.
func (m *measurement) recalibrate(c *config) {
	if c.tracer == nil {
		m.calibrate()
	}
}

// addRound records one round's wall time and the part of it the CPUs
// ran.
func (m *measurement) addRound(wall, ran time.Duration) {
	m.rounds = append(m.rounds, wall.Seconds())
	m.stolen = append(m.stolen, (wall - ran).Seconds())
}

// tail is a per-layer metric that is a percentile of samples. It is
// computed only when the run reports it, and refused there if too few
// samples lie beyond it.
type tail struct {
	samples []float64
	q       float64
}

// expect counts one checked operation, failed unless ok.
func (m *measurement) expect(ok bool) {
	m.attempted++
	if !ok {
		m.failed++
	}
}

// setupRepeats is how many times a run sets its workload up; setup_s is
// the median. Single set-ups of serve-mixed vary by up to 2× within a
// run, and a median of 5 moved by 14% between two sets of runs.
const setupRepeats = 9

// result is everything one workload run reports, as stored in a result
// file: the printed summary plus the provenance a reader needs to know
// what was measured.
type result struct {
	Workload string    `json:"workload"`
	Seed     int64     `json:"seed"`
	Seconds  float64   `json:"seconds"`
	Traced   bool      `json:"traced"`
	Started  time.Time `json:"started"`
	Host     hostInfo  `json:"host"`
	// Wall seconds of each set-up, of the timed phase and of each round
	// (serve-mixed: segment), and the CPU seconds stolen from all set-ups
	// together, from the phase and from each round.
	SetupS       []float64 `json:"setup_s"`
	SetupStolenS float64   `json:"setup_stolen_s"`
	PhaseS       float64   `json:"phase_s"`
	PhaseStolenS float64   `json:"phase_stolen_s"`
	RoundS       []float64 `json:"round_s"`
	RoundStolenS []float64 `json:"round_stolen_s"`
	// CalibrationS holds the calibration loop's times, steal removed;
	// HostFactor is their median over calibrationRef.
	CalibrationS []float64              `json:"calibration_s"`
	HostFactor   float64                `json:"host_factor"`
	Golden       string                 `json:"golden"`
	Notes        []string               `json:"notes,omitempty"`
	Correct      bool                   `json:"correct"`
	Attempted    int                    `json:"attempted"`
	Failed       int                    `json:"failed"`
	Metrics      map[string]metricValue `json:"metrics"`

	digests map[string]string // every checked output, for -update-golden
}

// summary is the last line a run prints.
type summary struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func (r *result) summary() summary {
	return summary{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: r.Metrics}
}

// runWorkload sets w up several times, runs its timed phase for
// c.seconds, checks its outputs and returns what it measured: the
// end-to-end metrics when untraced, the per-layer metrics when traced.
func runWorkload(w benchWorkload, c *config) (*result, error) {
	if runtime.NumCPU() < 2 {
		return nil, fmt.Errorf("the benchmark needs at least 2 CPUs; this host has %d", runtime.NumCPU())
	}
	r := &result{Workload: w.name, Seed: c.seed, Seconds: c.seconds, Traced: c.tracer != nil,
		Started: time.Now().UTC(), Host: host()}
	var golden map[string]string
	if c.size == 1 && !c.noGolden {
		var err error
		if golden, err = loadGolden(c.seed, w.name); err != nil {
			return nil, err
		}
	}
	if golden != nil {
		r.Golden = goldenName(c.seed)
	}
	m := &measurement{samples: map[string][]float64{}, tails: map[string]tail{}, ver: newVerifier(golden)}
	if golden == nil {
		m.notes = append(m.notes, fmt.Sprintf("no golden digests for seed %d at this size: checked only that repetitions agree", c.seed))
	}
	calibrate() // untimed: the first loop pays for the process's cold start
	for i := 0; i < 3; i++ {
		m.calibrate()
	}

	var inst instance
	setups := startWatch()
	for i := 0; i < setupRepeats; i++ {
		if inst != nil {
			inst.close()
		}
		sp := c.tracer.begin("setup", 0)
		start := time.Now()
		var err error
		inst, err = w.setup(c, m)
		r.SetupS = append(r.SetupS, time.Since(start).Seconds())
		c.tracer.end(sp)
		if err != nil {
			return nil, fmt.Errorf("%s: setup: %w", w.name, err)
		}
	}
	defer inst.close()
	setupWall, setupRan := setups.stop()
	r.SetupStolenS = (setupWall - setupRan).Seconds()

	var prof *os.File
	if c.tracer != nil {
		if err := os.MkdirAll(c.out, 0o755); err != nil {
			return nil, err
		}
		var err error
		if prof, err = os.Create(filepath.Join(c.out, "cpu.pprof")); err != nil {
			return nil, err
		}
		defer prof.Close()
		if err := pprof.StartCPUProfile(prof); err != nil {
			return nil, err
		}
	}
	rt0 := readRuntime()
	phase := startWatch()
	err := inst.measure(c, phase.start.Add(time.Duration(c.seconds*float64(time.Second))), m)
	phaseWall, phaseRan := phase.stop()
	r.PhaseS, r.PhaseStolenS = phaseWall.Seconds(), (phaseWall - phaseRan).Seconds()
	rt1 := readRuntime()
	if prof != nil {
		pprof.StopCPUProfile()
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	if err := inst.check(c, m); err != nil {
		return nil, fmt.Errorf("%s: check: %w", w.name, err)
	}
	if m.attempted == 0 {
		return nil, fmt.Errorf("%s: the timed phase completed no operation", w.name)
	}

	values := map[string]float64{}
	for name, xs := range m.samples {
		values[name] = median(xs)
	}
	for name, v := range runtimeLayers(rt0, rt1, m.attempted) {
		values[name] = v
	}
	// Timings in reference-host time: a host running at half speed has
	// a host factor of 2 and halves the measured throughput.
	r.CalibrationS = m.calibrations
	r.HostFactor = median(m.calibrations) / calibrationRef.Seconds()
	decls := endToEnd
	if c.tracer == nil {
		// A single set-up is too short for the 10 ms steal ticks, so each
		// gives up the share stolen from all of them together.
		values["setup_s"] = median(r.SetupS) * setupRan.Seconds() / setupWall.Seconds() / r.HostFactor
		values["ops_per_s"] = m.opsPerS * r.HostFactor
		values["latency_p50_ms"] = m.latencyMs / r.HostFactor
		if m.peakRSS == 0 {
			var err error
			if m.peakRSS, err = peakRSSMiB(); err != nil {
				return nil, err
			}
		}
		values["peak_rss_mb"] = m.peakRSS
	} else {
		decls = perLayer
		values["bench.traced_ops_per_s"] = m.opsPerS * r.HostFactor
		for name, t := range m.tails {
			v, err := percentile(t.samples, t.q)
			if err != nil {
				return nil, fmt.Errorf("%s: %s: %w", w.name, name, err)
			}
			values[name] = v
		}
		if err := writeTrace(c, values); err != nil {
			return nil, err
		}
	}
	for name := range values {
		if _, ok := declared(name); !ok {
			return nil, fmt.Errorf("%s: measured the undeclared metric %q", w.name, name)
		}
	}
	r.Metrics = render(decls, values)
	r.RoundS, r.RoundStolenS = m.rounds, m.stolen
	r.Notes = m.notes
	r.Attempted, r.Failed = m.attempted, m.failed
	r.Correct = m.failed == 0
	r.digests = m.ver.seen
	return r, nil
}

// writeTrace attributes the run's CPU profile to layers, adds the shares
// to values and writes spans.json and layers.json beside the profile.
func writeTrace(c *config, values map[string]float64) error {
	samples, err := pprofTraces(filepath.Join(c.out, "cpu.pprof"))
	if err != nil {
		return err
	}
	shares := layerShares(samples)
	for l, s := range shares {
		values[l+".cpu_share"] = s
	}
	if err := writeJSON(filepath.Join(c.out, "layers.json"), map[string]any{
		"workload": c.tracer.workload, "samples": len(samples), "cpu_share": shares,
	}); err != nil {
		return err
	}
	return writeJSON(filepath.Join(c.out, "spans.json"), c.tracer.finished())
}

// output is one checked output of a round: a named digest and the ops it
// stands for, all of which fail when it mismatches.
type output struct {
	name   string
	digest string
	ops    int
}

// roundResult is what one repetition of a grid workload's fixed work
// produced.
type roundResult struct {
	ops     int
	outputs []output
	// latencies holds the wait of each user request inside the round, in
	// ms; when empty, the whole round is one request.
	latencies []float64
	layers    map[string]float64
}

// rssRounds is the round after which a grid workload reads its peak
// RSS. fig3 and fig7 keep about 1 MiB alive per paper-suite round, so a
// reading at the end would grow with the rounds a run fits, that is,
// with the host's speed.
const rssRounds = 5

// runRounds repeats the fixed work of a grid workload until the
// deadline, at least once. A repetition's throughput is ops over the
// time it ran; the run reports the median repetition, because single
// repetitions on a shared host vary far more than their median does.
func runRounds(c *config, deadline time.Time, m *measurement, round func(parent int) (roundResult, error)) error {
	var rates, latencies []float64
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		if i == rssRounds {
			var err error
			if m.peakRSS, err = peakRSSMiB(); err != nil {
				return err
			}
		}
		m.recalibrate(c)
		sp := c.tracer.begin("round", 0)
		s0, to0, tr0 := sim.GlobalStats(), futex.GlobalTimeouts(), futex.GlobalTimeoutWakeRaces()
		w := startWatch()
		res, err := round(sp)
		wall, ran := w.stop()
		c.tracer.end(sp)
		if err != nil {
			return err
		}
		s1 := sim.GlobalStats()
		events := float64(s1.EventRecycles - s0.EventRecycles)
		m.add("sim.events", events)
		if events > 0 {
			m.add("sim.ns_per_event", float64(ran.Nanoseconds())/events)
		}
		m.add("sim.heap_compactions", float64(s1.HeapCompactions-s0.HeapCompactions))
		m.add("sim.heap_high_water", float64(s1.HeapHighWater))
		m.add("futex.timeouts", float64(futex.GlobalTimeouts()-to0))
		m.add("futex.timeout_wake_races", float64(futex.GlobalTimeoutWakeRaces()-tr0))
		for name, v := range res.layers {
			m.add(name, v)
		}
		m.attempted += res.ops
		for _, o := range res.outputs {
			if !m.ver.ok(o.name, o.digest) {
				m.failed += o.ops
			}
		}
		m.addRound(wall, ran)
		rates = append(rates, float64(res.ops)/ran.Seconds())
		if len(res.latencies) == 0 {
			latencies = append(latencies, ms(ran))
		}
		for _, l := range res.latencies {
			latencies = append(latencies, l*ran.Seconds()/wall.Seconds())
		}
	}
	m.opsPerS, m.latencyMs = median(rates), median(latencies)
	return nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// The Go runtime metrics a traced run reports, read before and after its
// timed phase, inside which the harness runs no calibration loop.
var runtimeNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/sched/latencies:seconds",
}

func readRuntime() []metrics.Sample {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return s
}

// runtimeLayers turns two runtime snapshots into the go.* metrics of the
// interval between them.
func runtimeLayers(a, b []metrics.Sample, ops int) map[string]float64 {
	f := func(i int) float64 { return b[i].Value.Float64() - a[i].Value.Float64() }
	u := func(i int) float64 { return float64(b[i].Value.Uint64() - a[i].Value.Uint64()) }
	out := map[string]float64{
		"go.alloc_bytes_per_op": u(3) / float64(ops),
		"go.allocs_per_op":      u(4) / float64(ops),
		"go.gc_cycles":          u(5),
	}
	if busy := f(1) - f(2); busy > 0 {
		out["go.gc_cpu_share"] = f(0) / busy
	}
	ha, hb := a[6].Value.Float64Histogram(), b[6].Value.Float64Histogram()
	var total uint64
	counts := make([]uint64, len(hb.Counts))
	for i := range hb.Counts {
		counts[i] = hb.Counts[i] - ha.Counts[i]
		total += counts[i]
	}
	var cum uint64
	for i, n := range counts {
		cum += n
		if total > 0 && float64(cum) >= 0.99*float64(total) {
			v := hb.Buckets[i+1]
			if v > 1e300 { // the last bucket is unbounded above
				v = hb.Buckets[i]
			}
			out["go.sched_latency_p99_us"] = v * 1e6
			break
		}
	}
	return out
}

// peakRSSMiB is the process's peak resident set (VmHWM).
func peakRSSMiB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM in /proc/self/status")
}

// hostInfo records what a result was measured on.
type hostInfo struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Version    string `json:"lockin_version"`
}

func host() hostInfo {
	h := hostInfo{CPU: "unknown", NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go: runtime.Version(), Version: results.Version()}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}
