package opts

import (
	"encoding/json"
	"errors"

	"lockin/internal/experiments"
	"lockin/internal/scenario"
)

// Job is one run request in the form every front end receives it: a
// registered experiment id or the bytes of a scenario spec, plus the
// options that shape the stored run. The CLI builds it from flags, the
// service from a POST, the service's journal and the fleet's leases
// carry it as JSON, and all of them turn it into a run through one
// Resolve.
type Job struct {
	// Experiment is a registered experiment id (e.g. "fig10",
	// "scenario:kyoto"). Empty when Scenario carries a spec instead.
	Experiment string `json:"experiment,omitempty"`
	// Scenario is an unregistered scenario spec body (a -scenario file,
	// a POSTed spec). Each process that resolves the job compiles it
	// itself, and the compiled spec hash lands in the run's metadata, so
	// a stale spec revision is refused at merge or diff time instead of
	// corrupting a run.
	Scenario json.RawMessage `json:"spec,omitempty"`
	Seed     int64           `json:"seed"`
	Scale    float64         `json:"scale"`
	Quick    bool            `json:"quick,omitempty"`
	// Workers is the sweep parallelism, output-neutral but recorded in
	// Meta.Workers, so a resolved job stores the metadata the original
	// request would have.
	Workers int `json:"workers,omitempty"`
}

// Resolve validates the job's options and turns it into the experiment
// to run and the options to run it under. It refuses a job naming both
// an id and a spec, neither, or "all" (a job is one experiment). An id
// the registry lacks yields an error wrapping experiments.ErrUnknown; a
// spec that does not compile yields the compiler's error.
func (j Job) Resolve() (experiments.Experiment, Options, error) {
	o := Defaults()
	o.Seed, o.Scale, o.Quick, o.Workers = j.Seed, j.Scale, j.Quick, j.Workers
	if err := o.NormalizeAndValidate(); err != nil {
		return experiments.Experiment{}, o, err
	}
	switch {
	case j.Experiment != "" && len(j.Scenario) > 0:
		return experiments.Experiment{}, o, errors.New("give an experiment id or a scenario spec, not both")
	case len(j.Scenario) > 0:
		c, err := scenario.ParseAndCompile(j.Scenario)
		if err != nil {
			return experiments.Experiment{}, o, err
		}
		return c.Experiment(), o, nil
	case j.Experiment == "all":
		return experiments.Experiment{}, o, errors.New(`"all" names every experiment and a job runs one; give each id separately`)
	case j.Experiment != "":
		e, err := experiments.Find(j.Experiment)
		return e, o, err
	}
	return experiments.Experiment{}, o, errors.New("give an experiment id or a scenario spec")
}
