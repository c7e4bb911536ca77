package main

import (
	"context"
	"fmt"
	"net/http/httptest"
	"sync"
	"time"

	"lockin/internal/experiments"
	"lockin/internal/fleet"
	"lockin/internal/scenario"
	"lockin/internal/sweep"
)

// fleetScale is the skewed grid's window multiplier, and fleetWorkers
// the worker count, one per CPU of the 2-CPU host the benchmark was
// sized on.
const (
	fleetScale   = 0.15
	fleetWorkers = 2
)

// setupFleetSkewed compiles the frozen skewed spec, surveys it through a
// coordinator, and simulates one mid-grid cell (20 threads) untimed to
// warm up.
func setupFleetSkewed(c *config, m *measurement) (instance, error) {
	spec := input("skewed.json")
	comp, err := scenario.ParseAndCompile(spec)
	if err != nil {
		return nil, err
	}
	job := fleet.JobSpec{Scenario: spec, Seed: c.seed, Scale: fleetScale * c.size, Workers: 1}
	start := time.Now()
	if _, err := fleet.New(fleet.Config{Job: job, Expect: fleetWorkers}); err != nil {
		return nil, err
	}
	m.add("fleet.survey_ms", ms(time.Since(start)))
	comp.Experiment().Run(experiments.Options{Seed: c.seed, Scale: job.Scale, Workers: 1, OnlyCell: 20})
	return rounds(func(parent int) (roundResult, error) { return fleetRound(c, job, parent) }), nil
}

// fleetRound distributes the grid once: a fresh coordinator, and two
// workers that lease, simulate and post chunks until it is merged.
func fleetRound(c *config, job fleet.JobSpec, parent int) (roundResult, error) {
	sp := c.tracer.begin("fleet.New", parent)
	start := time.Now()
	co, err := fleet.New(fleet.Config{Job: job, Expect: fleetWorkers})
	survey := time.Since(start)
	c.tracer.end(sp)
	if err != nil {
		return roundResult{}, err
	}
	srv := httptest.NewServer(co.Handler())
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	stats := make([]sweep.Stats, fleetWorkers)
	errs := make([]error, fleetWorkers)
	var wg sync.WaitGroup
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sp := c.tracer.begin(fmt.Sprintf("fleet.Work w%d", i), parent)
			defer c.tracer.end(sp)
			errs[i] = fleet.Work(ctx, fleet.WorkerConfig{Addr: srv.URL, Name: fmt.Sprintf("w%d", i), Stats: &stats[i]})
		}(i)
	}
	wg.Wait()
	wall := time.Since(start)
	for i, err := range errs {
		if err != nil {
			return roundResult{}, fmt.Errorf("worker %d: %w", i, err)
		}
	}
	run := co.Result()
	if run == nil {
		return roundResult{}, fmt.Errorf("workers finished but the run is not merged")
	}

	cells, chunks := 0, 0
	var busy, maxBusy time.Duration
	for _, w := range co.Status().Workers {
		cells += int(w.Cells)
		chunks += int(w.Chunks)
		busy += w.Busy
		maxBusy = max(maxBusy, w.Busy)
	}
	layers := map[string]float64{
		"fleet.survey_ms":  ms(survey),
		"fleet.chunks":     float64(chunks),
		"fleet.busy_ratio": busy.Seconds() / (fleetWorkers * wall.Seconds()),
		"sweep.cells":      float64(cells),
	}
	if busy > 0 {
		layers["fleet.imbalance"] = maxBusy.Seconds() / (busy.Seconds() / fleetWorkers)
	}
	var swept sweep.Stats
	for i := range stats {
		swept.Merge(&stats[i])
	}
	layers["sweep.busy_s"] = swept.Busy().Seconds()
	layers["sweep.utilization"] = swept.Busy().Seconds() / (fleetWorkers * wall.Seconds())
	return roundResult{
		ops:     cells,
		outputs: []output{{name: "merged", digest: digest(renderTables(run.Tables)), ops: cells}},
		layers:  layers,
	}, nil
}
