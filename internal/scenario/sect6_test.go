package scenario

import (
	"path/filepath"
	"strings"
	"testing"

	"lockin/internal/experiments"
	"lockin/internal/metrics"
	"lockin/internal/results"
	"lockin/internal/sweep"
)

// col returns the index of a header column.
func col(t *testing.T, tab *metrics.Table, name string) int {
	t.Helper()
	for i, h := range tab.Header {
		if h == name {
			return i
		}
	}
	t.Fatalf("no column %q in %v", name, tab.Header)
	return -1
}

// TestSect6SpecDeterminism is the workers-invariance gate for every
// §6 profile that became declarative in this round: rocksdb (read axis
// over a condqueue/single mix), mysql_mem and mysql_ssd (oversub axis,
// the SSD flavour with in-operation blocking I/O) and sqlite (threads
// axis over the db/WAL lock pair). Serial and 8-worker runs must
// render byte-identically and every cell must make progress.
func TestSect6SpecDeterminism(t *testing.T) {
	for _, name := range []string{"rocksdb", "mysql_mem", "mysql_ssd", "sqlite"} {
		t.Run(name, func(t *testing.T) {
			c := bundled(t, name)
			base := experiments.Options{Seed: 42, Scale: 0.1, Quick: true}
			serial, parallel := base, base
			serial.Workers, parallel.Workers = 1, 8
			a, b := c.Run(serial), c.Run(parallel)
			if a[0].String() != b[0].String() {
				t.Fatalf("workers changed %s output:\n--- serial ---\n%s--- parallel ---\n%s", name, a[0], b[0])
			}
			thr := col(t, a[0], "thr(Kacq/s)")
			if a[0].NumRows() == 0 {
				t.Fatal("no rows")
			}
			for ri, row := range a[0].Cells() {
				if v, ok := row[thr].Num(); !ok || v <= 0 {
					t.Fatalf("%s row %d: non-positive throughput %v", name, ri, row[thr].Text())
				}
			}
		})
	}
}

// TestMySQLSSDBlockingChangesLatency pins what the 'every'-gated
// blocking span is for: mysql_ssd must show a p99 at least the I/O
// length (the SSD wait lands inside the measured operation), while
// mysql_mem — same transaction shape, no I/O — stays well below it.
func TestMySQLSSDBlockingChangesLatency(t *testing.T) {
	o := experiments.Options{Seed: 42, Scale: 0.1, Quick: true, Workers: 4}
	mem := bundled(t, "mysql_mem").Run(o)[0]
	ssd := bundled(t, "mysql_ssd").Run(o)[0]
	const ioKcyc = 280.0 // the spec's block_cycles, in the table's Kcyc unit
	p99m := col(t, mem, "p99(Kcyc)")
	p99s := col(t, ssd, "p99(Kcyc)")
	oc := col(t, ssd, "oversub")
	for ri := range ssd.Cells() {
		sv, _ := ssd.Cells()[ri][p99s].Num()
		mv, _ := mem.Cells()[ri][p99m].Num()
		if sv < ioKcyc {
			t.Fatalf("ssd row %d: p99 %.1f Kcyc below the %d Kcyc I/O span — blocking not measured", ri, sv, int(ioKcyc))
		}
		// Only compare against mem where the machine is not
		// oversubscribed: past 1× the mem profile's p99 is dominated by
		// scheduler timeslice waits, not the transaction itself.
		if f, _ := ssd.Cells()[ri][oc].Num(); f <= 1 && mv >= sv {
			t.Fatalf("row %d: mem p99 %.1f not below ssd p99 %.1f", ri, mv, sv)
		}
	}
}

// TestEveryOneIsEveryIteration: an explicit "every": 1 gates nothing,
// so it must render byte-identically to the same spec without the
// field — the schema addition cannot move existing measurements.
func TestEveryOneIsEveryIteration(t *testing.T) {
	plain := `{
	  "name": "ev",
	  "locks": [{"name": "l", "topology": "single"}],
	  "groups": [{"name": "g", "threads": 2,
	    "ops": [{"lock": "l", "cs_cycles": 400}, {"compute_cycles": 300}]}],
	  "sweep": {"locks": ["MUTEX"]}
	}`
	gated := strings.ReplaceAll(plain, `{"compute_cycles": 300}`, `{"compute_cycles": 300, "every": 1}`)
	o := experiments.Options{Seed: 7, Scale: 0.1, Workers: 2}
	a, err := ParseAndCompile([]byte(plain))
	if err != nil {
		t.Fatal(err)
	}
	b, err := ParseAndCompile([]byte(gated))
	if err != nil {
		t.Fatal(err)
	}
	at, bt := a.Run(o)[0], b.Run(o)[0]
	// The spec hashes differ (the field is part of the canonical JSON),
	// so compare the measurement — header and every rendered cell — not
	// the hash-bearing notes.
	if strings.Join(at.Header, "|") != strings.Join(bt.Header, "|") {
		t.Fatalf("every: 1 changed the header: %v vs %v", at.Header, bt.Header)
	}
	ar, br := at.Rows(), bt.Rows()
	if len(ar) != len(br) {
		t.Fatalf("every: 1 changed the row count: %d vs %d", len(ar), len(br))
	}
	for i := range ar {
		if strings.Join(ar[i], "|") != strings.Join(br[i], "|") {
			t.Fatalf("every: 1 changed row %d: %v vs %v", i, ar[i], br[i])
		}
	}
}

// runOf wraps a compiled scenario's output as the stored-run structure
// the query layer operates on, exactly as cmd/lockbench saves it.
func runOf(c *Compiled, o experiments.Options) *results.Run {
	return &results.Run{
		Meta: results.Meta{
			Experiment: c.ID(), Seed: o.Seed, Scale: o.Scale, Quick: o.Quick,
			SpecHash: c.Hash, Axes: c.RunAxes(o), Version: "test",
		},
		Tables: c.Run(o),
	}
}

// TestSliceReproducesLegacyHamsterDB is the acceptance gate of the
// query layer: slicing the read=90 plane out of the folded hamsterdb
// run must reproduce the legacy hamsterdb_rd spec's table byte-for-
// byte — header and every rendered cell — and diff clean plane-wise,
// with the sliced run's axis metadata collapsing to the legacy lock
// axis. (testdata/legacy/hamsterdb_rd.json is the golden pre-fold
// spec.)
func TestSliceReproducesLegacyHamsterDB(t *testing.T) {
	o := experiments.Options{Seed: 42, Scale: 0.5, Workers: 4}
	legacy := runOf(legacyCompiled(t, "hamsterdb_rd.json"), o)
	folded := runOf(bundled(t, "hamsterdb"), o)

	sliced, err := results.Slice(folded, []results.Fix{{Axis: "read", Value: "90"}})
	if err != nil {
		t.Fatal(err)
	}
	if !sweep.AxesEqual(sliced.Meta.Axes, legacy.Meta.Axes) {
		t.Fatalf("sliced axes %+v do not collapse to the legacy axes %+v",
			sliced.Meta.Axes, legacy.Meta.Axes)
	}

	rep, err := results.ComparePlanes(legacy, sliced, results.Tolerance{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Empty() {
		t.Fatalf("sliced read=90 plane differs from the legacy hamsterdb_rd run:\n%s", rep)
	}

	lt, st := legacy.Tables[0], sliced.Tables[0]
	if strings.Join(lt.Header, "|") != strings.Join(st.Header, "|") {
		t.Fatalf("headers differ:\nlegacy %v\nsliced %v", lt.Header, st.Header)
	}
	lr, sr := lt.Rows(), st.Rows()
	if len(lr) != len(sr) {
		t.Fatalf("row counts differ: %d vs %d", len(lr), len(sr))
	}
	for i := range lr {
		if strings.Join(lr[i], "|") != strings.Join(sr[i], "|") {
			t.Fatalf("row %d not byte-identical:\nlegacy %v\nsliced %v", i, lr[i], sr[i])
		}
	}
}

// TestSliceReproducesLegacyMemcached extends the same contract to the
// oversub fold: the oversub<=0.4 cells of the folded memcached spec
// are the legacy thread-axis spec's grid, so slicing one oversub plane
// must reproduce the matching legacy thread rows byte-for-byte.
func TestSliceReproducesLegacyMemcached(t *testing.T) {
	o := experiments.Options{Seed: 42, Scale: 0.25, Workers: 4}
	legacy := runOf(legacyCompiled(t, "memcached.json"), o)
	folded := runOf(bundled(t, "memcached"), o)

	// The legacy spec swept threads [4, 8, 16] on the 40-context Xeon:
	// factor 0.2 is the 8-thread plane, i.e. legacy rows 3..5.
	sliced, err := results.Slice(folded, []results.Fix{{Axis: "oversub", Value: "0.2"}})
	if err != nil {
		t.Fatal(err)
	}
	sr := sliced.Tables[0].Rows()
	lr := legacy.Tables[0].Rows()[3:6]
	if len(sr) != len(lr) {
		t.Fatalf("plane has %d rows, want %d", len(sr), len(lr))
	}
	for i := range lr {
		if strings.Join(lr[i], "|") != strings.Join(sr[i], "|") {
			t.Fatalf("row %d not byte-identical:\nlegacy %v\nsliced %v", i, lr[i], sr[i])
		}
	}
}

// TestFigures13To15ReproduceStoredRuns reruns each stored Figure 13-15
// run in testdata/sect6 under its own seed, scale and mode and requires
// zero differences: results.Compare at tolerance 0 and byte-identical
// rendered tables. The quick runs and full-mode fig15 were saved by the
// hand-coded system profiles Table 3 replaced, so they pin the move.
// Full-mode fig13 and fig14 were saved after it: their RocksDB rows
// run the bundled spec's leader/follower write queue.
func TestFigures13To15ReproduceStoredRuns(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("testdata", "sect6", "*", "*.json"))
	if err != nil || len(paths) != 6 {
		t.Fatalf("want 6 stored runs, found %v (%v)", paths, err)
	}
	for _, path := range paths {
		t.Run(path, func(t *testing.T) {
			want, err := results.Load(path)
			if err != nil {
				t.Fatal(err)
			}
			e, err := experiments.Find(want.Meta.Experiment)
			if err != nil {
				t.Fatal(err)
			}
			m := want.Meta
			got := &results.Run{Meta: m, Tables: e.Run(experiments.Options{Seed: m.Seed, Scale: m.Scale, Quick: m.Quick, Workers: 4})}
			rep, err := results.Compare(want, got, results.Tolerance{})
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Empty() {
				t.Fatalf("%s differs from its stored run:\n%s", m.Experiment, rep)
			}
			for i := range want.Tables {
				if w, g := want.Tables[i].String(), got.Tables[i].String(); w != g {
					t.Fatalf("rendered tables differ:\n--- stored ---\n%s--- rerun ---\n%s", w, g)
				}
			}
		})
	}
}
