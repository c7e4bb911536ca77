package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"text/tabwriter"
)

// Verdicts of -compare.
const (
	improved   = "improved"
	unchanged  = "unchanged"
	regressed  = "regressed"
	unresolved = "unresolved"
)

// minPairs and minWinShare are the rule for claiming a change: at least
// ten runs on each side, paired in the order they ran, with the change
// winning at least nine tenths of the pairs (ties count for neither) and
// its median further from the parent's than the parent's own quartile
// spread.
const (
	minPairs    = 10
	minWinShare = 0.9
)

// comparison is the verdict on one metric of one workload: a is the
// parent (baseline) side, b the change.
type comparison struct {
	pairs, wins  int
	a, b         [3]float64 // first quartile, median, third quartile
	verdict      string
	relativeDiff float64 // (median b − median a) / median a
}

// compareMetric judges b against a. Better is "lower" or "higher";
// bound is the relative worsening that counts as a regression, 0 when
// the metric has none (per-layer metrics), in which case only a
// significant worsening by the pairing rule is a regression. failsA and
// failsB are the failed ops of each side's runs: a change that fails
// more ops than its parent has regressed, whatever its numbers.
func compareMetric(a, b []float64, failsA, failsB int, better string, bound float64) comparison {
	var c comparison
	c.a[0], c.a[1], c.a[2] = quartiles(a)
	c.b[0], c.b[1], c.b[2] = quartiles(b)
	c.pairs = min(len(a), len(b))
	sign := 1.0 // +1 when larger is better
	if better == lower {
		sign = -1
	}
	losses := 0
	for i := 0; i < c.pairs; i++ {
		switch d := sign * (b[i] - a[i]); {
		case d > 0:
			c.wins++
		case d < 0:
			losses++
		}
	}
	gap := sign * (c.b[1] - c.a[1]) // > 0: b is better
	if c.a[1] != 0 {
		c.relativeDiff = (c.b[1] - c.a[1]) / math.Abs(c.a[1])
	}
	iqr := c.a[2] - c.a[0]
	significant := func(won int) bool {
		return c.pairs >= minPairs && float64(won) >= minWinShare*float64(c.pairs) && math.Abs(gap) > iqr
	}
	allBetter := len(a) > 0 && len(b) > 0 &&
		(sign > 0 && slices.Min(b) > slices.Max(a) || sign < 0 && slices.Max(b) < slices.Min(a))
	spread := func(q [3]float64) float64 {
		if q[1] == 0 {
			return 0
		}
		return (q[2] - q[0]) / math.Abs(q[1])
	}
	switch {
	case failsB > failsA:
		c.verdict = regressed
	case gap > 0 && significant(c.wins):
		c.verdict = improved
	case bound == 0 && gap < 0 && significant(losses):
		c.verdict = regressed
	case bound > 0 && -gap > bound*math.Abs(c.a[1]):
		c.verdict = regressed
	case bound > 0 && (spread(c.a) > bound || spread(c.b) > bound) && !allBetter:
		c.verdict = unresolved
	default:
		c.verdict = unchanged
	}
	return c
}

// loadResults reads every result file in dir, grouped by workload and
// traced flag, each group in the order the runs started.
func loadResults(dir string) (map[string][]result, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("no result files in %s", dir)
	}
	out := map[string][]result{}
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r result
		if err := json.Unmarshal(b, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		key := r.Workload
		if r.Traced {
			key += " (traced)"
		}
		out[key] = append(out[key], r)
	}
	for _, rs := range out {
		sort.Slice(rs, func(i, j int) bool { return rs[i].Started.Before(rs[j].Started) })
	}
	return out, nil
}

// compareDirs prints, per workload and metric, each side's quartiles,
// the change's wins over the pairs, and the verdict. Directory a is the
// parent, b the change.
func compareDirs(dirA, dirB string, w io.Writer) error {
	a, err := loadResults(dirA)
	if err != nil {
		return err
	}
	b, err := loadResults(dirB)
	if err != nil {
		return err
	}
	var keys []string
	for k := range a {
		if _, ok := b[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	if len(keys) == 0 {
		return fmt.Errorf("%s and %s share no workload", dirA, dirB)
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintf(tw, "workload\tmetric\tunit\tA q1\tA median\tA q3\tB q1\tB median\tB q3\tB−A\twins\tverdict\t\n")
	for _, k := range keys {
		fa, fb := failures(a[k]), failures(b[k])
		for _, d := range append(append([]metricDecl(nil), endToEnd...), perLayer...) {
			va, vb := values(a[k], d.Name), values(b[k], d.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			c := compareMetric(va, vb, fa, fb, d.Better, d.Bound)
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.4g\t%.4g\t%.4g\t%.4g\t%.4g\t%.4g\t%+.1f%%\t%d/%d\t%s\t\n",
				k, d.Name, d.Unit, c.a[0], c.a[1], c.a[2], c.b[0], c.b[1], c.b[2],
				100*c.relativeDiff, c.wins, c.pairs, c.verdict)
		}
		if fa+fb > 0 {
			fmt.Fprintf(tw, "%s\tfailed ops\t\t\t%d\t\t\t%d\t\t\t\t\t\n", k, fa, fb)
		}
	}
	return tw.Flush()
}

func values(rs []result, name string) []float64 {
	var out []float64
	for _, r := range rs {
		if v, ok := r.Metrics[name]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}

func failures(rs []result) int {
	n := 0
	for _, r := range rs {
		n += r.Failed
	}
	return n
}
