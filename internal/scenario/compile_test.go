package scenario

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lockin/internal/experiments"
	"lockin/internal/metrics"
	"lockin/internal/results"
)

// bundled returns one compiled bundled scenario by name.
func bundled(t *testing.T, name string) *Compiled {
	t.Helper()
	cs, err := Bundled()
	if err != nil {
		t.Fatalf("bundle: %v", err)
	}
	for _, c := range cs {
		if c.Spec.Name == name {
			return c
		}
	}
	t.Fatalf("no bundled scenario %q", name)
	return nil
}

// legacyCompiled compiles one of the pre-fold spec files kept under
// testdata/legacy — the byte-level ground truth the folded multi-axis
// specs must reproduce.
func legacyCompiled(t *testing.T, file string) *Compiled {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "legacy", file))
	if err != nil {
		t.Fatalf("read legacy spec: %v", err)
	}
	c, err := ParseAndCompile(data)
	if err != nil {
		t.Fatalf("legacy spec no longer compiles: %v", err)
	}
	return c
}

func TestBundledRegistered(t *testing.T) {
	cs, err := Bundled()
	if err != nil {
		t.Fatal(err)
	}
	if len(cs) < 6 {
		t.Fatalf("bundle has %d scenarios, want at least 6", len(cs))
	}
	for _, c := range cs {
		e, err := experiments.Find(c.ID())
		if err != nil {
			t.Fatalf("bundled scenario not registered: %v", err)
		}
		if e.SpecHash != c.Hash {
			t.Fatalf("%s: registered hash %s, compiled hash %s", c.ID(), e.SpecHash, c.Hash)
		}
		if e.Axes == nil {
			t.Fatalf("%s: registered without axis metadata", c.ID())
		}
		axes := e.Axes(experiments.Options{})
		if len(axes) == 0 || axes[len(axes)-1].Name != "lock" {
			t.Fatalf("%s: bad axis metadata: %+v", c.ID(), axes)
		}
		// Quick runs trim every axis to its first and last value; the
		// recorded metadata must describe the trimmed grid, not the
		// declared one, or row→axis-value mapping breaks.
		for _, a := range e.Axes(experiments.Options{Quick: true}) {
			if a.Len() > 2 {
				t.Fatalf("%s: quick-run axis %s has %d values, want <= 2", c.ID(), a.Name, a.Len())
			}
		}
	}
}

// projectRows builds a table with like's title/header/notes and the
// first n rows of from, minus the column at drop — the inverse of
// "nest the old grid under a new outer axis".
func projectRows(like, from *metrics.Table, n, drop int) *metrics.Table {
	out := metrics.NewTable(like.Title, like.Header...)
	for _, row := range from.Cells()[:n] {
		cells := append(append([]metrics.Value{}, row[:drop]...), row[drop+1:]...)
		out.AddValues(cells)
	}
	for _, note := range like.Notes {
		out.AddNote("%s", note)
	}
	return out
}

// TestFoldedHamsterDBReproducesLegacySpec: the folded hamsterdb spec
// nests the retired hamsterdb_rd spec as the first slice of its read
// axis. Because new axes nest outermost, those cells keep indices
// 0..2 and therefore their seeds: dropping the read% column from the
// slice must reproduce the legacy spec's table byte-for-byte.
func TestFoldedHamsterDBReproducesLegacySpec(t *testing.T) {
	o := experiments.Options{Seed: 42, Scale: 0.5, Workers: 4}
	legacy := legacyCompiled(t, "hamsterdb_rd.json").Run(o)[0]
	folded := bundled(t, "hamsterdb").Run(o)[0]
	got := projectRows(legacy, folded, legacy.NumRows(), 3)
	if got.String() != legacy.String() {
		t.Fatalf("folded read=90 slice differs from the legacy hamsterdb_rd table:\n--- legacy ---\n%s--- folded slice ---\n%s", legacy, got)
	}
}

// TestFoldedMemcachedReproducesLegacySpec: the folded memcached spec's
// oversub axis starts with the factors 0.1/0.2/0.4 — exactly the
// 4/8/16-thread axis of the retired memcached spec — so its first nine
// cells must reproduce the legacy table byte-for-byte after dropping
// the oversub column.
func TestFoldedMemcachedReproducesLegacySpec(t *testing.T) {
	o := experiments.Options{Seed: 42, Scale: 0.25, Workers: 4}
	legacy := legacyCompiled(t, "memcached.json").Run(o)[0]
	folded := bundled(t, "memcached").Run(o)[0]
	got := projectRows(legacy, folded, legacy.NumRows(), 3)
	if got.String() != legacy.String() {
		t.Fatalf("folded oversub<=0.4 slice differs from the legacy memcached table:\n--- legacy ---\n%s--- folded slice ---\n%s", legacy, got)
	}
}

// TestWorkersInvariance reruns the most entangled bundled scenario
// (condvar queue, blocking producers, two groups, per-group and
// percentile columns) serial vs parallel: the sweep determinism
// contract must hold for compiled scenarios too.
func TestWorkersInvariance(t *testing.T) {
	c := bundled(t, "condpipe")
	base := experiments.Options{Seed: 42, Scale: 0.25, Quick: true}
	serial, parallel := base, base
	serial.Workers, parallel.Workers = 1, 8
	a, b := c.Run(serial), c.Run(parallel)
	if a[0].String() != b[0].String() {
		t.Fatalf("workers changed scenario output:\n--- serial ---\n%s--- parallel ---\n%s", a[0], b[0])
	}
}

// TestMemcachedGetDeterminism is the kyoto-style gate for the GET-heavy
// bundle: a spec sweeping two non-default axes (read ratio × zipf
// skew) must stay worker-count invariant, produce the full 2×2×2
// cross product, and actually respond to the skew axis.
func TestMemcachedGetDeterminism(t *testing.T) {
	c := bundled(t, "memcached_get")
	base := experiments.Options{Seed: 42, Scale: 0.25, Workers: 1}
	par := base
	par.Workers = 8
	a, b := c.Run(base), c.Run(par)
	if a[0].String() != b[0].String() {
		t.Fatalf("workers changed memcached_get output:\n--- serial ---\n%s--- parallel ---\n%s", a[0], b[0])
	}
	tab := a[0]
	if tab.NumRows() != 8 {
		t.Fatalf("memcached_get produced %d rows, want 2 read × 2 skew × 2 locks = 8", tab.NumRows())
	}
	header := tab.Header
	col := func(name string) int {
		for i, h := range header {
			if h == name {
				return i
			}
		}
		t.Fatalf("no column %q in %v", name, header)
		return -1
	}
	readCol, skewCol, thrCol := col("read%"), col("skew"), col("thr(Kacq/s)")
	// The hot-stripe distribution must change the measurement: the
	// skew=0 and skew=1.1 rows of the same (read, lock) point differ.
	rows := tab.Cells()
	for i := 0; i < len(rows); i += 4 { // rows i..i+1 skew 0, i+2..i+3 skew 1.1
		for j := 0; j < 2; j++ {
			uni, hot := rows[i+j], rows[i+2+j]
			if uni[readCol].Text() != hot[readCol].Text() {
				t.Fatalf("row pairing wrong: %v vs %v", uni, hot)
			}
			if uni[skewCol].Text() == hot[skewCol].Text() {
				t.Fatalf("skew column constant across the axis: %v", uni[skewCol].Text())
			}
			if uni[thrCol].Equal(hot[thrCol]) {
				t.Fatalf("zipf skew had no effect on throughput: %v", uni[thrCol].Text())
			}
		}
	}
}

// TestPerGroupAndPercentileColumns checks the optional column sets on
// the condpipe bundle: per-group throughputs must sum to the
// aggregate column and the percentile columns must be ordered.
func TestPerGroupAndPercentileColumns(t *testing.T) {
	c := bundled(t, "condpipe")
	o := experiments.Options{Seed: 42, Scale: 0.25, Quick: true, Workers: 4}
	tab := c.Run(o)[0]
	header := tab.Header
	col := func(name string) int {
		for i, h := range header {
			if h == name {
				return i
			}
		}
		t.Fatalf("no column %q in %v", name, header)
		return -1
	}
	thr := col("thr(Kacq/s)")
	p50, p95, p99 := col("p50(Kcyc)"), col("p95(Kcyc)"), col("p99(Kcyc)")
	prod, read := col("thr[producers](Kacq/s)"), col("thr[readers](Kacq/s)")
	for ri, row := range tab.Cells() {
		total, _ := row[thr].Num()
		pv, _ := row[prod].Num()
		rv, _ := row[read].Num()
		if pv <= 0 || rv <= 0 {
			t.Fatalf("row %d: non-positive group throughput %v / %v", ri, pv, rv)
		}
		if sum := pv + rv; sum < total*0.999999 || sum > total*1.000001 {
			t.Fatalf("row %d: group throughputs %v+%v don't sum to aggregate %v", ri, pv, rv, total)
		}
		v50, _ := row[p50].Num()
		v95, _ := row[p95].Num()
		v99, _ := row[p99].Num()
		if v50 > v95 || v95 > v99 {
			t.Fatalf("row %d: percentiles out of order: p50=%v p95=%v p99=%v", ri, v50, v95, v99)
		}
	}
}

// TestShardMergeRoundTrip shards a bundled multi-axis scenario two
// ways, merges the stored runs, and requires the byte-identical file
// an unsharded run saves — the scenario half of the store's sharding
// contract, now over an oversub × lock axis space.
func TestShardMergeRoundTrip(t *testing.T) {
	c := bundled(t, "memcached")
	o := experiments.Options{Seed: 42, Scale: 0.1, Quick: true, Workers: 4}
	mkRun := func(o experiments.Options) *results.Run {
		m := results.Meta{
			Experiment: c.ID(), Seed: o.Seed, Scale: o.Scale, Quick: o.Quick,
			SpecHash: c.Hash, Axes: c.RunAxes(o), Version: "test",
		}
		if o.RangeTotal > 0 {
			m.Range = &results.CellRange{Lo: o.RangeLo, Hi: o.RangeHi, Total: o.RangeTotal}
		}
		return &results.Run{Meta: m, Tables: c.Run(o)}
	}
	full := mkRun(o)
	var shards []*results.Run
	for s := 0; s < 2; s++ {
		so := o
		so.RangeLo, so.RangeHi, so.RangeTotal = s, s+1, 2
		shards = append(shards, mkRun(so))
	}
	merged, err := results.Merge(shards[0], shards[1])
	if err != nil {
		t.Fatalf("merge: %v", err)
	}
	if merged.Meta.SpecHash != c.Hash {
		t.Fatalf("merge dropped the spec hash: %q", merged.Meta.SpecHash)
	}

	dir := t.TempDir()
	fullPath, err := results.Save(filepath.Join(dir, "full"), full)
	if err != nil {
		t.Fatal(err)
	}
	mergedPath, err := results.Save(filepath.Join(dir, "merged"), merged)
	if err != nil {
		t.Fatal(err)
	}
	fb, err := os.ReadFile(fullPath)
	if err != nil {
		t.Fatal(err)
	}
	mb, err := os.ReadFile(mergedPath)
	if err != nil {
		t.Fatal(err)
	}
	if string(fb) != string(mb) {
		t.Fatalf("merged store file differs from unsharded:\n--- unsharded %s ---\n%s--- merged %s ---\n%s",
			fullPath, fb, mergedPath, mb)
	}
	if !strings.Contains(string(fb), `"axes"`) {
		t.Fatalf("stored multi-axis run carries no axis metadata:\n%s", fb)
	}
}

// TestShardSpecRevisionRefused: shards from different spec revisions
// must not merge.
func TestShardSpecRevisionRefused(t *testing.T) {
	c := bundled(t, "kyoto")
	o := experiments.Options{Seed: 42, Scale: 0.25, Quick: true}
	mk := func(idx int, hash string) *results.Run {
		so := o
		so.RangeLo, so.RangeHi, so.RangeTotal = idx, idx+1, 2
		return &results.Run{
			Meta: results.Meta{
				Experiment: c.ID(), Seed: o.Seed, Scale: o.Scale, Quick: o.Quick,
				Range:    &results.CellRange{Lo: idx, Hi: idx + 1, Total: 2},
				SpecHash: hash, Version: "test",
			},
			Tables: c.Run(so),
		}
	}
	if _, err := results.Merge(mk(0, c.Hash), mk(1, "deadbeef0000")); err == nil {
		t.Fatal("merge of shards from different spec revisions succeeded")
	}
}

// TestOversubscribedScenario sanity-checks the oversub axis on the
// folded memcached bundle: factor 2 on the 40-context Xeon must
// resolve to 80 software threads, run through the simulated OS
// scheduler, and produce non-zero throughput.
func TestOversubscribedScenario(t *testing.T) {
	c := bundled(t, "memcached")
	if got := c.totalThreads(cellParams{oversub: 2}); got != 80 {
		t.Fatalf("memcached at factor 2 resolves %d threads, want 80", got)
	}
	o := experiments.Options{Seed: 42, Scale: 0.1, Quick: true, Workers: 4}
	tab := c.Run(o)[0] // quick trims the oversub axis to [0.1, 2]
	if tab.NumRows() == 0 {
		t.Fatal("no rows")
	}
	sawOversub := false
	for _, row := range tab.Cells() {
		if thr, ok := row[4].Num(); !ok || thr <= 0 {
			t.Fatalf("cell has non-positive throughput: %v", row[4].Text())
		}
		if n, _ := row[0].Num(); n == 80 {
			sawOversub = true
		}
	}
	if !sawOversub {
		t.Fatal("quick run never reached the 2x-oversubscribed slice")
	}
}
