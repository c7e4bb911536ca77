package opts

import (
	"lockin/internal/results"
	"lockin/internal/sweep"
)

// Query carries the axis-aware query a run (and its baseline) is
// pushed through: the slice fixes first, then the projection. It is
// the structured form of -slice/-project and of the service's
// slice/project endpoints, shared so both front-ends transform runs
// identically.
type Query struct {
	Fixes []results.Fix
	Keep  []string
}

// Query returns the axis query these options describe.
func (o Options) Query() Query { return Query{Fixes: o.Slice, Keep: o.Project} }

// Active reports whether the query transforms anything at all.
func (q Query) Active() bool { return len(q.Fixes) > 0 || len(q.Keep) > 0 }

// Apply transforms a run through the requested slice and projection.
func (q Query) Apply(run *results.Run) (*results.Run, error) {
	var err error
	if len(q.Fixes) > 0 {
		run, err = results.Slice(run, q.Fixes)
		if err != nil {
			return nil, err
		}
	}
	if len(q.Keep) > 0 {
		run, err = results.Project(run, q.Keep)
		if err != nil {
			return nil, err
		}
	}
	return run, nil
}

// ApplyToBaseline mirrors the queries onto a baseline that still
// carries the queried axes; a baseline already on the target plane —
// e.g. the retired single-axis spec a folded multi-axis spec absorbed
// — is used as-is.
func (q Query) ApplyToBaseline(base *results.Run) (*results.Run, error) {
	space := sweep.NewSpace(base.Meta.Axes...)
	var err error
	if len(q.Fixes) > 0 {
		// Apply only the fixes whose axis the baseline still carries:
		// a fix on an axis the baseline never swept means it is already
		// on that plane (slicing read=90,lock=MUTEX against a legacy
		// run that only swept lock still works — only lock=MUTEX
		// applies). If the remaining planes don't line up after that,
		// ComparePlanes reports the axis mismatch precisely.
		var present []results.Fix
		for _, f := range q.Fixes {
			if space.AxisIndex(f.Axis) >= 0 {
				present = append(present, f)
			}
		}
		if len(present) > 0 {
			base, err = results.Slice(base, present)
			if err != nil {
				return nil, err
			}
		}
	}
	if len(q.Keep) > 0 && !axesAreExactly(base.Meta.Axes, q.Keep) {
		base, err = results.Project(base, q.Keep)
		if err != nil {
			return nil, err
		}
	}
	return base, nil
}

// Compare diffs run against its baseline under tol. Under an active
// query, or when either run was stored queried (Meta.Query records a
// slice/projection applied before saving), the comparison is
// plane-wise (results.ComparePlanes) against the baseline mirrored
// through ApplyToBaseline: axis metadata must match, tables pair
// positionally, and cosmetic fields (title, notes, spec hash) are
// ignored, because the query's whole point is comparing runs of
// different experiments over the same plane. Otherwise the strict
// results.Compare applies. The CLI's -baseline and the service's
// /v1/diff both compare through it.
func (q Query) Compare(base, run *results.Run, tol results.Tolerance) (*results.Report, error) {
	if !q.Active() && run.Meta.Query == "" && base.Meta.Query == "" {
		return results.Compare(base, run, tol)
	}
	base, err := q.ApplyToBaseline(base)
	if err != nil {
		return nil, err
	}
	return results.ComparePlanes(base, run, tol)
}

// axesAreExactly reports whether the axis names equal the given set
// (order-insensitively: Project canonicalizes to nesting order).
func axesAreExactly(axes []sweep.Axis, names []string) bool {
	if len(axes) != len(names) {
		return false
	}
	have := make(map[string]bool, len(axes))
	for _, a := range axes {
		have[a.Name] = true
	}
	for _, n := range names {
		if !have[n] {
			return false
		}
	}
	return true
}
