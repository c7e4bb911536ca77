package opts_test

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"lockin/internal/bench/opts"
	"lockin/internal/experiments"
	"lockin/internal/scenario"
)

// TestJobResolve pins the one resolver every front end shares: the
// refusals the CLI, the service (400 vs 404), its journal and the fleet
// rely on, and what a valid job resolves to.
func TestJobResolve(t *testing.T) {
	spec, err := scenario.BundledSpec("kyoto.json")
	if err != nil {
		t.Fatal(err)
	}
	comp, err := scenario.ParseAndCompile(spec)
	if err != nil {
		t.Fatal(err)
	}
	badSpec := []byte(`{"name": "x"}`)
	_, compileErr := scenario.ParseAndCompile(badSpec)
	if compileErr == nil {
		t.Fatal("the bad spec compiles")
	}
	cases := []struct {
		name    string
		job     opts.Job
		err     string // substring of the error; "" = resolves
		unknown bool   // the error wraps experiments.ErrUnknown
		id      string // resolved experiment id
		hash    string // resolved spec hash
	}{
		{name: "unknown id", job: opts.Job{Experiment: "no-such-exp", Scale: 1},
			err: "unknown experiment", unknown: true},
		{name: "bad spec", job: opts.Job{Scenario: badSpec, Scale: 1},
			err: compileErr.Error()},
		{name: "spec", job: opts.Job{Scenario: spec, Seed: 7, Scale: 1, Quick: true},
			id: comp.ID(), hash: comp.Hash},
		{name: "id", job: opts.Job{Experiment: "fig10", Scale: 0.25},
			id: "fig10"},
		{name: "both", job: opts.Job{Experiment: "fig10", Scenario: spec, Scale: 1}, err: "not both"},
		{name: "neither", job: opts.Job{Scale: 1}, err: "scenario spec"},
		{name: "all", job: opts.Job{Experiment: "all", Scale: 1}, err: `"all"`},
		{name: "zero scale", job: opts.Job{Experiment: "fig10"}, err: "bad scale"},
		{name: "negative scale", job: opts.Job{Experiment: "fig10", Scale: -1}, err: "bad scale"},
		{name: "NaN scale", job: opts.Job{Experiment: "fig10", Scale: math.NaN()}, err: "bad scale"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			e, o, err := c.job.Resolve()
			if c.err != "" {
				if err == nil || !strings.Contains(err.Error(), c.err) {
					t.Fatalf("Resolve() err = %v, want containing %q", err, c.err)
				}
				if got := errors.Is(err, experiments.ErrUnknown); got != c.unknown {
					t.Fatalf("errors.Is(err, ErrUnknown) = %v, want %v (err %v)", got, c.unknown, err)
				}
				return
			}
			if err != nil {
				t.Fatalf("Resolve(): %v", err)
			}
			if e.ID != c.id || e.SpecHash != c.hash {
				t.Fatalf("resolved %s (spec hash %q), want %s (%q)", e.ID, e.SpecHash, c.id, c.hash)
			}
			want := opts.Defaults()
			want.Seed, want.Scale, want.Quick = c.job.Seed, c.job.Scale, c.job.Quick
			if !reflect.DeepEqual(o, want) {
				t.Fatalf("resolved options %+v, want %+v", o, want)
			}
		})
	}
}
