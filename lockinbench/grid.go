package main

import (
	"fmt"
	"math"
	"time"

	"lockin/internal/core"
	"lockin/internal/experiments"
	"lockin/internal/machine"
	"lockin/internal/scenario"
	"lockin/internal/sim"
	"lockin/internal/sweep"
	"lockin/internal/workload"
)

// microGrid is a lock kind × thread count grid of the §5
// microbenchmark, run serially (one sweep worker) so that per-cell
// simulator work, not worker scheduling, sets the pace.
type microGrid struct {
	kinds                       []core.Kind
	threads                     []int
	cs, outside, warmup, window sim.Cycles
}

// spinGrid: every event is a spin step or a coherence transfer.
var spinGrid = microGrid{
	kinds:   []core.Kind{core.KindTAS, core.KindTTAS, core.KindTicket, core.KindMCS, core.KindCLH},
	threads: []int{10, 20, 40},
	cs:      1000, outside: 2000, warmup: 200_000, window: 10_000_000,
}

// sleepGrid: 80 threads is twice the simulated Xeon's 40 contexts, so
// futex waits, wakes and scheduler oversubscription do the work.
var sleepGrid = microGrid{
	kinds:   []core.Kind{core.KindMutex, core.KindMutexee},
	threads: []int{20, 40, 80},
	cs:      2000, outside: 500, warmup: 200_000, window: 80_000_000,
}

func (g microGrid) configs() []workload.MicroConfig {
	var cfgs []workload.MicroConfig
	for _, k := range g.kinds {
		for _, n := range g.threads {
			cfgs = append(cfgs, workload.MicroConfig{
				Machine: machine.DefaultConfig(0), // RunSweep seeds each cell
				Factory: workload.FactoryFor(k),
				Threads: n, Locks: 1, CS: g.cs, Outside: g.outside,
				Warmup: g.warmup, Duration: g.window,
			})
		}
	}
	return cfgs
}

func setupSpinStorm(c *config, m *measurement) (instance, error) { return setupMicro(spinGrid, c) }

func setupSleepStorm(c *config, m *measurement) (instance, error) { return setupMicro(sleepGrid, c) }

// setupMicro builds the grid and simulates its first cell once untimed,
// so lazy runtime set-up and heap growth are not charged to round 1.
func setupMicro(g microGrid, c *config) (instance, error) {
	cfgs := g.configs()
	workload.RunSweep(sweep.Options{Workers: 1, Seed: c.seed, Scale: c.size}, cfgs[:1])
	return rounds(func(parent int) (roundResult, error) { return microRound(c, g, cfgs, parent) }), nil
}

func microRound(c *config, g microGrid, cfgs []workload.MicroConfig, parent int) (roundResult, error) {
	var st sweep.Stats
	sp := c.tracer.begin("workload.RunSweep", parent)
	start := time.Now()
	res := workload.RunSweep(sweep.Options{Workers: 1, Seed: c.seed, Scale: c.size, Stats: &st}, cfgs)
	wall := time.Since(start)
	c.tracer.end(sp)

	layers := map[string]float64{}
	rr := roundResult{ops: len(res), layers: layers}
	for i, r := range res {
		coh, fx := r.Machine.Coh.Stats(), r.Machine.Futex.Stats()
		layers["coherence.transfers"] += float64(coh.Transfers)
		layers["coherence.rmws"] += float64(coh.RMWs)
		layers["coherence.watcher_wakes"] += float64(coh.WatcherWakes)
		layers["futex.waits"] += float64(fx.Waits)
		layers["futex.wakes"] += float64(fx.Wakes)
		layers["futex.bucket_wait_mcycles"] += float64(fx.BucketWait) / 1e6
		for _, l := range r.Locks {
			if mx, ok := l.(*core.Mutexee); ok {
				layers["core.mutexee.handovers"] += float64(mx.Stats().SkippedWakes)
				layers["core.mutexee.sleeps"] += float64(mx.Stats().Sleeps)
			}
		}
		e := r.Energy
		rr.outputs = append(rr.outputs, output{
			name: fmt.Sprintf("%v/%d", g.kinds[i/len(g.threads)], g.threads[i%len(g.threads)]),
			digest: digest(fmt.Sprintf("ops=%d acquires=%d end=%d energy=%x/%x/%x", r.Ops, r.TotalAcquires, r.EndTime,
				math.Float64bits(e.Package), math.Float64bits(e.Cores), math.Float64bits(e.DRAM))),
			ops: 1,
		})
	}
	layers["sweep.cells"] = float64(st.Cells())
	layers["sweep.busy_s"] = st.Busy().Seconds()
	layers["sweep.utilization"] = st.Busy().Seconds() / wall.Seconds()
	return rr, nil
}

// rounds is a workload whose timed phase repeats one fixed round.
type rounds func(parent int) (roundResult, error)

func (r rounds) measure(c *config, deadline time.Time, m *measurement) error {
	return runRounds(c, deadline, m, r)
}

func (r rounds) check(*config, *measurement) error { return nil }

func (r rounds) close() {}

// paperScale is the paper-suite's window multiplier: the quick,
// quarter-scale configuration CI regenerates the paper with.
const paperScale = 0.25

// setupPaperSuite compiles the bundled scenarios, resolves the frozen
// experiment list and runs one experiment untimed to warm up.
func setupPaperSuite(c *config, m *measurement) (instance, error) {
	start := time.Now()
	if _, err := scenario.Bundled(); err != nil {
		return nil, err
	}
	m.add("scenario.compile_ms", ms(time.Since(start)))
	exps := make([]experiments.Experiment, len(paperIDs))
	for i, id := range paperIDs {
		e, err := experiments.Find(id)
		if err != nil {
			return nil, err
		}
		exps[i] = e
	}
	opt := experiments.Options{Seed: c.seed, Scale: paperScale * c.size, Quick: true, Workers: 2}
	warm, err := experiments.Find("ext_future") // eight cells, about 0.1 s
	if err != nil {
		return nil, err
	}
	warm.Run(opt)
	return rounds(func(parent int) (roundResult, error) { return paperRound(c, exps, opt, parent) }), nil
}

func paperRound(c *config, exps []experiments.Experiment, opt experiments.Options, parent int) (roundResult, error) {
	rr := roundResult{layers: map[string]float64{}}
	var busy time.Duration
	start := time.Now()
	for _, e := range exps {
		var st sweep.Stats
		o := opt
		o.Stats = &st
		sp := c.tracer.begin("experiments.Run "+e.ID, parent)
		t0 := time.Now()
		tabs := e.Run(o)
		wall := time.Since(t0)
		c.tracer.end(sp)
		cells := int(st.Cells())
		rr.ops += cells
		rr.outputs = append(rr.outputs, output{name: e.ID, digest: digest(renderTables(tabs)), ops: cells})
		rr.latencies = append(rr.latencies, ms(wall))
		rr.layers[expMetric(e.ID)] = wall.Seconds()
		busy += st.Busy()
	}
	rr.layers["sweep.cells"] = float64(rr.ops)
	rr.layers["sweep.busy_s"] = busy.Seconds()
	rr.layers["sweep.utilization"] = busy.Seconds() / (float64(opt.Workers) * time.Since(start).Seconds())
	return rr, nil
}
