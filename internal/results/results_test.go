package results

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"lockin/internal/metrics"
	"lockin/internal/sweep"
)

func demoRun(thr, tpp float64) *Run {
	t := metrics.NewTable("demo — contention", "threads", "lock", "thr(M/s)", "TPP(K/J)")
	t.AddRow(20, "MUTEX", thr, tpp)
	t.AddRow(40, "MUTEXEE", 2*thr, 2*tpp)
	t.AddNote("seed 42")
	return &Run{
		Meta: Meta{
			Experiment: "demo", Seed: 42, Scale: 1, Quick: true, Version: "test",
			Axes: []sweep.Axis{
				sweep.NewAxis("threads", 20, 40),
				sweep.NewAxis("lock", "MUTEX", "MUTEXEE"),
			},
		},
		Tables: []*metrics.Table{t},
	}
}

// metaEqual compares run metadata field-wise (Meta holds an axis
// slice, so == no longer applies).
func metaEqual(a, b Meta) bool {
	return a.Experiment == b.Experiment && a.Seed == b.Seed && a.Scale == b.Scale &&
		a.Quick == b.Quick && a.Workers == b.Workers &&
		fmt.Sprint(a.Range) == fmt.Sprint(b.Range) &&
		a.SpecHash == b.SpecHash && a.Version == b.Version &&
		sweep.AxesEqual(a.Axes, b.Axes)
}

func TestSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	r := demoRun(3.5, 12.25)
	path, err := Save(dir, r)
	if err != nil {
		t.Fatalf("save: %v", err)
	}
	if want := filepath.Join(dir, "demo.json"); path != want {
		t.Fatalf("saved to %s, want %s", path, want)
	}
	got, err := LoadExperiment(dir, "demo")
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if !metaEqual(got.Meta, r.Meta) {
		t.Fatalf("meta changed: %+v vs %+v", got.Meta, r.Meta)
	}
	if len(got.Tables) != 1 || !metrics.EqualTable(got.Tables[0], r.Tables[0]) {
		t.Fatalf("tables changed across save/load")
	}
	if got.Tables[0].String() != r.Tables[0].String() {
		t.Fatalf("rendering changed across save/load")
	}
	// A reloaded run diffs clean against the original with zero
	// tolerance — the property the CI determinism gate relies on.
	if rep := Diff(r, got, Tolerance{}); !rep.Empty() {
		t.Fatalf("self-diff not empty:\n%s", rep)
	}
	ids, err := List(dir)
	if err != nil || len(ids) != 1 || ids[0] != "demo" {
		t.Fatalf("List = %v, %v", ids, err)
	}
}

func TestDiffExactMatch(t *testing.T) {
	rep := Diff(demoRun(3.5, 12.25), demoRun(3.5, 12.25), Tolerance{})
	if !rep.Empty() || rep.NumDiffs() != 0 {
		t.Fatalf("identical runs diff: %s", rep)
	}
	if !strings.Contains(rep.String(), "no differences") {
		t.Fatalf("empty report renders %q", rep.String())
	}
}

func TestDiffToleranceEdges(t *testing.T) {
	base := demoRun(100, 10)
	// 0.5% drift on every numeric cell.
	drifted := demoRun(100.5, 10.05)

	// Out of tolerance at zero tolerance: both float columns flag in
	// both rows (int/string cells are unchanged).
	rep := Diff(base, drifted, Tolerance{})
	if rep.Empty() {
		t.Fatal("0.5% drift passed a zero tolerance")
	}
	if n := len(rep.Tables[0].Cells); n != 4 {
		t.Fatalf("%d cells flagged, want 4:\n%s", n, rep)
	}
	for _, c := range rep.Tables[0].Cells {
		if c.RelErr <= 0 || c.RelErr > 0.006 {
			t.Fatalf("rel err %g out of expected band: %+v", c.RelErr, c)
		}
	}

	// Within tolerance: 1% default absorbs the drift.
	if rep := Diff(base, drifted, Tolerance{Default: 0.01}); !rep.Empty() {
		t.Fatalf("0.5%% drift flagged at 1%% tolerance:\n%s", rep)
	}

	// Per-column override: tight TPP column flags, loose default does
	// not.
	tol := Tolerance{Default: 0.01, Columns: map[string]float64{"TPP(K/J)": 0.001}}
	rep = Diff(base, drifted, tol)
	if rep.Empty() {
		t.Fatal("per-column tolerance ignored")
	}
	for _, c := range rep.Tables[0].Cells {
		if c.Column != "TPP(K/J)" {
			t.Fatalf("column %s flagged despite loose default: %+v", c.Column, c)
		}
	}
	if len(rep.Tables[0].Cells) != 2 {
		t.Fatalf("want both TPP rows flagged:\n%s", rep)
	}
}

func TestDiffCatchesKindAndRenderingChange(t *testing.T) {
	base := demoRun(1, 1)
	cur := demoRun(1, 1)
	// Same numeric value, different kind and rendering: "20" -> "20.000".
	cur.Tables[0].Cells()[0][0] = metrics.FloatValue(20)
	rep := Diff(base, cur, Tolerance{})
	if rep.Empty() {
		t.Fatal("int->float rendering change passed a zero-tolerance diff")
	}
	if c := rep.Tables[0].Cells[0]; c.Column != "threads" || c.Cur.Text() != "20.000" {
		t.Fatalf("unexpected cell flagged: %+v", c)
	}
	// The same change is still flagged under a loose numeric tolerance —
	// the printed table changed even though the value did not.
	if rep := Diff(base, cur, Tolerance{Default: 0.5}); rep.Empty() {
		t.Fatal("rendering change passed under a numeric tolerance")
	}
	// A kind change combined with within-tolerance drift must still
	// flag: int 20 -> float 20.002 under a 1% tolerance.
	cur2 := demoRun(1, 1)
	cur2.Tables[0].Cells()[0][0] = metrics.FloatValue(20.002)
	if rep := Diff(base, cur2, Tolerance{Default: 0.01}); rep.Empty() {
		t.Fatal("column type change passed because the drift was within tolerance")
	}
	// But pure drift within tolerance on a same-kind column stays quiet.
	cur3 := demoRun(1.0005, 1)
	if rep := Diff(demoRun(1, 1), cur3, Tolerance{Default: 0.01}); !rep.Empty() {
		t.Fatalf("within-tolerance same-kind drift flagged:\n%s", rep)
	}
}

func TestDiffRowCountMismatch(t *testing.T) {
	base := demoRun(1, 1)
	cur := demoRun(1, 1)
	cur.Tables[0].AddRow(60, "TAS", 0.5, 0.5)
	rep := Diff(base, cur, Tolerance{})
	if rep.Empty() || rep.Tables[0].RowsAdded != 1 || rep.Tables[0].RowsRemoved != 0 {
		t.Fatalf("added row not reported: %s", rep)
	}
	// And the reverse direction.
	rep = Diff(cur, base, Tolerance{})
	if rep.Empty() || rep.Tables[0].RowsRemoved != 1 || rep.Tables[0].RowsAdded != 0 {
		t.Fatalf("removed row not reported: %s", rep)
	}
	if rep.NumDiffs() != 1 {
		t.Fatalf("NumDiffs = %d, want 1", rep.NumDiffs())
	}
}

func TestDiffTextAndStructure(t *testing.T) {
	base := demoRun(1, 1)
	cur := demoRun(1, 1)
	// Rename a lock: text cells compare exactly, never within tolerance.
	cur.Tables[0].Cells()[0][1] = metrics.StringValue("SPIN")
	cur.Tables[0].Notes[0] = "seed 43"
	rep := Diff(base, cur, Tolerance{Default: 100})
	if rep.Empty() {
		t.Fatal("text change passed under a numeric tolerance")
	}
	td := rep.Tables[0]
	if len(td.Cells) != 1 || td.Cells[0].Column != "lock" || !td.NotesDiff {
		t.Fatalf("unexpected report: %s", rep)
	}

	// A missing table is reported by title on both sides.
	extra := metrics.NewTable("only-here", "x")
	cur2 := demoRun(1, 1)
	cur2.Tables = append(cur2.Tables, extra)
	rep = Diff(base, cur2, Tolerance{})
	if len(rep.TablesAdded) != 1 || rep.TablesAdded[0] != "only-here" {
		t.Fatalf("added table not reported: %s", rep)
	}
	rep = Diff(cur2, base, Tolerance{})
	if len(rep.TablesRemoved) != 1 || rep.TablesRemoved[0] != "only-here" {
		t.Fatalf("removed table not reported: %s", rep)
	}
}

func TestMergeShards(t *testing.T) {
	full := demoRun(3, 9)
	full.Tables[0].AddRow(60, "TAS", 1.5, 4.5)

	shard := func(idx int, rows ...int) *Run {
		t := metrics.NewTable(full.Tables[0].Title, full.Tables[0].Header...)
		for _, r := range rows {
			t.AddValues(full.Tables[0].Cells()[r])
		}
		t.AddNote("seed 42")
		m := full.Meta
		m.Range = &CellRange{Lo: idx, Hi: idx + 1, Total: 2}
		return &Run{Meta: m, Tables: []*metrics.Table{t}}
	}
	s0, s1 := shard(0, 0, 1), shard(1, 2)

	merged, err := Merge(s1, s0) // any order
	if err != nil {
		t.Fatalf("merge: %v", err)
	}
	if merged.Meta.Range != nil {
		t.Fatalf("merged meta still partial: %+v", merged.Meta)
	}
	if merged.Tables[0].String() != full.Tables[0].String() {
		t.Fatalf("merge not byte-identical:\n%s\nvs\n%s",
			merged.Tables[0], full.Tables[0])
	}
	if rep := Diff(full, merged, Tolerance{}); !rep.Empty() {
		t.Fatalf("merged run diffs against full run:\n%s", rep)
	}

	// Error paths: missing shard, duplicate shard, option mismatch.
	if _, err := Merge(s0); err == nil {
		t.Fatal("merge accepted a missing shard")
	}
	if _, err := Merge(s0, s0); err == nil {
		t.Fatal("merge accepted duplicate shards")
	}
	bad := shard(1, 2)
	bad.Meta.Seed = 7
	if _, err := Merge(s0, bad); err == nil {
		t.Fatal("merge accepted shards from different seeds")
	}
	if _, err := Merge(); err == nil {
		t.Fatal("merge of nothing succeeded")
	}
}

// TestSaveShardFilename: a -shard 1/4 run is the cell range [1,2)/4
// and saves under the range name.
func TestSaveShardFilename(t *testing.T) {
	dir := t.TempDir()
	r := demoRun(1, 1)
	r.Meta.Range = &CellRange{Lo: 1, Hi: 2, Total: 4}
	path, err := Save(dir, r)
	if err != nil {
		t.Fatalf("save: %v", err)
	}
	if want := filepath.Join(dir, "demo.cells1-2-of-4.json"); path != want {
		t.Fatalf("shard saved to %s, want %s", path, want)
	}
	// Shard files are excluded from List.
	if ids, _ := List(dir); len(ids) != 0 {
		t.Fatalf("List picked up shard files: %v", ids)
	}
}

// TestSaveIsCrashAtomic pins that Save replaces a stored run by rename,
// never by rewriting it in place: a reader that opened the old file
// before the save still reads the old bytes in full, the new bytes are
// in place afterwards, and no temp file is left behind.
func TestSaveIsCrashAtomic(t *testing.T) {
	dir := t.TempDir()
	path, err := Save(dir, demoRun(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	old, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	next := demoRun(2, 2)
	next.Tables[0].AddRow(60, "TAS", 1.5, 4.5)
	if _, err := Save(dir, next); err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(f)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, old) {
		t.Fatalf("a reader of the old file saw it change under it:\n got %s\nwant %s", got, old)
	}
	want, err := Encode(next)
	if err != nil {
		t.Fatal(err)
	}
	if now, err := os.ReadFile(path); err != nil || !bytes.Equal(now, want) {
		t.Fatalf("new run not in place (%v):\n%s", err, now)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Fatalf("store holds %d files after the save, want only the run: %v", len(ents), ents)
	}

	// A write that cannot land (the target is a directory) fails and
	// removes its temp file.
	blocked := filepath.Join(dir, "blocked")
	if err := os.MkdirAll(filepath.Join(blocked, "x"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := WriteAtomic(blocked, want); err == nil {
		t.Fatal("WriteAtomic over a directory succeeded")
	}
	if _, err := os.Stat(blocked + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("failed write left its temp file behind: %v", err)
	}
}

func TestVersionNonEmpty(t *testing.T) {
	if Version() == "" {
		t.Fatal("Version returned empty string")
	}
}

func TestCompareRefusesSpecRevisions(t *testing.T) {
	base, cur := demoRun(1, 1), demoRun(1, 1)
	base.Meta.SpecHash, cur.Meta.SpecHash = "aaaa00000000", "bbbb00000000"
	if _, err := Compare(base, cur, Tolerance{}); err == nil {
		t.Fatal("Compare accepted runs of different spec revisions")
	} else if !strings.Contains(err.Error(), "spec revision") {
		t.Fatalf("unhelpful refusal: %v", err)
	}
	// Same revision, or a legacy run without a hash, still compares.
	cur.Meta.SpecHash = base.Meta.SpecHash
	if rep, err := Compare(base, cur, Tolerance{}); err != nil || !rep.Empty() {
		t.Fatalf("same-revision compare failed: %v / %v", err, rep)
	}
	cur.Meta.SpecHash = ""
	if _, err := Compare(base, cur, Tolerance{}); err != nil {
		t.Fatalf("hashless run refused: %v", err)
	}
}

func TestMergeRefusesSpecRevisions(t *testing.T) {
	mk := func(idx int, hash string) *Run {
		r := demoRun(1, 1)
		r.Meta.Range, r.Meta.SpecHash = &CellRange{Lo: idx, Hi: idx + 1, Total: 2}, hash
		return r
	}
	if _, err := Merge(mk(0, "aaaa00000000"), mk(1, "bbbb00000000")); err == nil {
		t.Fatal("merge accepted shards from different spec revisions")
	}
	m, err := Merge(mk(0, "aaaa00000000"), mk(1, "aaaa00000000"))
	if err != nil {
		t.Fatalf("same-revision merge failed: %v", err)
	}
	if m.Meta.SpecHash != "aaaa00000000" {
		t.Fatalf("merge dropped the spec hash: %q", m.Meta.SpecHash)
	}
}

func TestMergeRefusesAxisMismatch(t *testing.T) {
	mk := func(idx int) *Run {
		r := demoRun(1, 1)
		r.Meta.Range = &CellRange{Lo: idx, Hi: idx + 1, Total: 2}
		return r
	}
	a, b := mk(0), mk(1)
	b.Meta.Axes[0] = sweep.NewAxis("threads", 20, 80)
	if _, err := Merge(a, b); err == nil {
		t.Fatal("merge accepted shards sweeping different axes")
	} else if !strings.Contains(err.Error(), "different axes") {
		t.Fatalf("unhelpful refusal: %v", err)
	}
	m, err := Merge(mk(0), mk(1))
	if err != nil {
		t.Fatalf("same-axes merge failed: %v", err)
	}
	if !sweep.AxesEqual(m.Meta.Axes, a.Meta.Axes) {
		t.Fatalf("merge dropped the axes: %+v", m.Meta.Axes)
	}
}

func TestFilenameSanitizesScenarioIDs(t *testing.T) {
	m := Meta{Experiment: "scenario:rw95"}
	if got := m.Filename(); got != "scenario-rw95.json" {
		t.Fatalf("Filename() = %q, want scenario-rw95.json", got)
	}
	m.Range = &CellRange{Lo: 1, Hi: 2, Total: 2}
	if got := m.Filename(); got != "scenario-rw95.cells1-2-of-2.json" {
		t.Fatalf("sharded Filename() = %q", got)
	}
}

// TestEncodeMatchesSave pins the contract the HTTP service's run cache
// relies on: Encode produces exactly the bytes Save writes, so serving
// an encoded run and serving the stored file are indistinguishable.
func TestEncodeMatchesSave(t *testing.T) {
	dir := t.TempDir()
	r := demoRun(3.5, 12.25)
	path, err := Save(dir, r)
	if err != nil {
		t.Fatalf("save: %v", err)
	}
	onDisk, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	encoded, err := Encode(r)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	if !bytes.Equal(onDisk, encoded) {
		t.Fatalf("Encode and Save disagree:\n--- file ---\n%s\n--- encode ---\n%s", onDisk, encoded)
	}
}

func TestCacheKey(t *testing.T) {
	base := Meta{Experiment: "fig11", Seed: 42, Scale: 1, Quick: false}
	key := base.CacheKey()
	if !strings.HasPrefix(key, "fig11-") || len(key) != len("fig11-")+16 {
		t.Fatalf("CacheKey = %q, want fig11-<16 hex digits>", key)
	}
	if k2 := base.CacheKey(); k2 != key {
		t.Fatalf("CacheKey not stable: %q vs %q", key, k2)
	}
	// Workers never changes the produced bytes, so it must not change
	// the key — a request differing only there is the same run.
	same := base
	same.Workers = 8
	if same.CacheKey() != key {
		t.Fatalf("workers changed the cache key: %q vs %q", same.CacheKey(), key)
	}
	// Everything that changes the output changes the key.
	for name, m := range map[string]Meta{
		"seed":       {Experiment: "fig11", Seed: 43, Scale: 1},
		"scale":      {Experiment: "fig11", Seed: 42, Scale: 2},
		"quick":      {Experiment: "fig11", Seed: 42, Scale: 1, Quick: true},
		"experiment": {Experiment: "fig10", Seed: 42, Scale: 1},
	} {
		if m.CacheKey() == key {
			t.Errorf("changing %s did not change the cache key", name)
		}
	}
	// A spec hash is the workload identity when present: the same spec
	// content under the same options is one run regardless of how it
	// was named, so the hash suffix matches while the slug differs.
	a := Meta{Experiment: "scenario:a", SpecHash: "abcdef123456", Seed: 42, Scale: 1}
	b := Meta{Experiment: "scenario:b", SpecHash: "abcdef123456", Seed: 42, Scale: 1}
	if a.CacheKey()[len("scenario-a-"):] != b.CacheKey()[len("scenario-b-"):] {
		t.Fatalf("same spec hash, different key material: %q vs %q", a.CacheKey(), b.CacheKey())
	}
	// The slug is filename-safe even for scenario:* ids.
	if k := a.CacheKey(); strings.ContainsAny(k, ":/") {
		t.Fatalf("cache key %q is not filename-safe", k)
	}
}

func TestListStored(t *testing.T) {
	dir := t.TempDir()
	r1 := demoRun(3.5, 12.25)
	r2 := demoRun(1, 2)
	r2.Meta.Experiment = "another"
	r2.Meta.Seed = 7
	for _, r := range []*Run{r1, r2} {
		if _, err := Save(dir, r); err != nil {
			t.Fatal(err)
		}
	}
	// Non-run files are skipped, not decoded.
	if err := os.WriteFile(filepath.Join(dir, "scratch.json.tmp"), []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	// So is a run file that is gone by the time it is loaded, as one
	// evicted during the listing is: a dangling symlink lists but does
	// not open.
	if err := os.Symlink(filepath.Join(dir, "evicted-target.json"), filepath.Join(dir, "evicted.json")); err != nil {
		t.Fatal(err)
	}
	got, err := ListStored(dir)
	if err != nil {
		t.Fatalf("ListStored: %v", err)
	}
	if len(got) != 2 || got[0].Key != "another" || got[1].Key != "demo" {
		t.Fatalf("ListStored keys = %+v, want [another demo]", got)
	}
	if got[0].Meta.Seed != 7 || !metaEqual(got[1].Meta, r1.Meta) {
		t.Fatalf("ListStored metadata wrong: %+v", got)
	}
	// A shard 2/3 an older store saved lists with the range Load gives it.
	old := demoRun(1, 2)
	old.Meta.ShardIndex, old.Meta.ShardCount = 2, 3
	b, err := Encode(old)
	if err != nil {
		t.Fatal(err)
	}
	legacy := filepath.Join(dir, "demo.shard2-of-3.json")
	if err := os.WriteFile(legacy, b, 0o644); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(legacy)
	if err != nil {
		t.Fatal(err)
	}
	if got, err = ListStored(dir); err != nil || len(got) != 3 || got[2].Key != "demo.shard2-of-3" {
		t.Fatalf("ListStored with a legacy shard = %+v (%v), want it third", got, err)
	}
	if !metaEqual(got[2].Meta, loaded.Meta) || *got[2].Meta.Range != (CellRange{Lo: 2, Hi: 3, Total: 3}) || got[2].Meta.ShardCount != 0 {
		t.Fatalf("legacy shard listed as %+v, Load reads %+v", got[2].Meta, loaded.Meta)
	}
	// A run file that exists but does not decode still fails the listing.
	if err := os.WriteFile(filepath.Join(dir, "corrupt.json"), []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ListStored(dir); err == nil {
		t.Fatal("ListStored listed a store holding a corrupt run")
	}
}

// TestLoadExperimentErrors pins the -baseline failure modes: a missing
// store directory and a store without the requested run are different
// mistakes and must get different, actionable messages.
func TestLoadExperimentErrors(t *testing.T) {
	dir := t.TempDir()

	_, err := LoadExperiment(filepath.Join(dir, "nope"), "fig11")
	if err == nil || !strings.Contains(err.Error(), "does not exist") {
		t.Errorf("missing dir: err = %v, want 'does not exist'", err)
	}

	empty := filepath.Join(dir, "empty")
	if err := os.MkdirAll(empty, 0o755); err != nil {
		t.Fatal(err)
	}
	_, err = LoadExperiment(empty, "fig11")
	if err == nil || !strings.Contains(err.Error(), "is empty") || !strings.Contains(err.Error(), "fig11") {
		t.Errorf("empty store: err = %v, want 'is empty' naming fig11", err)
	}

	if _, err := Save(empty, demoRun(1, 2)); err != nil {
		t.Fatal(err)
	}
	_, err = LoadExperiment(empty, "fig11")
	if err == nil || !strings.Contains(err.Error(), "no stored run for experiment fig11") ||
		!strings.Contains(err.Error(), "stored: demo") {
		t.Errorf("missing run: err = %v, want 'no stored run ... (stored: demo)'", err)
	}

	file := filepath.Join(empty, "demo.json")
	if _, err := LoadExperiment(file, "demo"); err == nil || !strings.Contains(err.Error(), "not a store directory") {
		t.Errorf("file as store: err = %v, want 'not a store directory'", err)
	}
}

// TestPerfProvenance pins the Perf contract: NewPerf computes rounded
// throughput, Perf round-trips through Save/Load, it never enters the
// cache key, and Merge drops it (a merged run has no single producer).
func TestPerfProvenance(t *testing.T) {
	p := NewPerf(2*time.Second, 90)
	if p.WallMS != 2000 || p.Cells != 90 || p.CellsPerSec != 45 {
		t.Fatalf("NewPerf = %+v, want wall 2000ms, 90 cells, 45 cells/sec", p)
	}
	if p.Host == "" {
		t.Fatal("NewPerf left Host empty")
	}
	if z := NewPerf(0, 5); z.CellsPerSec != 0 {
		t.Fatalf("zero wall time computed cells/sec %v", z.CellsPerSec)
	}

	r := demoRun(3.5, 12.25)
	bare := r.Meta.CacheKey()
	r.Meta.Perf = p
	if r.Meta.CacheKey() != bare {
		t.Fatal("Perf changed the cache key; provenance must not affect run identity")
	}
	dir := t.TempDir()
	if _, err := Save(dir, r); err != nil {
		t.Fatal(err)
	}
	got, err := LoadExperiment(dir, "demo")
	if err != nil {
		t.Fatal(err)
	}
	if got.Meta.Perf == nil || *got.Meta.Perf != *p {
		t.Fatalf("Perf did not round-trip: %+v vs %+v", got.Meta.Perf, p)
	}

	a, b := demoRun(1, 2), demoRun(1, 2)
	a.Meta.Range = &CellRange{Lo: 0, Hi: 1, Total: 2}
	b.Meta.Range = &CellRange{Lo: 1, Hi: 2, Total: 2}
	a.Meta.Perf = NewPerf(time.Second, 2)
	b.Meta.Perf = NewPerf(3*time.Second, 2)
	merged, err := Merge(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if merged.Meta.Perf != nil {
		t.Fatalf("Merge kept shard provenance %+v", merged.Meta.Perf)
	}
}

// rangePart slices demo rows into a cell-range partial run — the form
// fleet workers post their leased chunks in.
func rangePart(full *Run, lo, hi, total int, rows ...int) *Run {
	tb := metrics.NewTable(full.Tables[0].Title, full.Tables[0].Header...)
	for _, r := range rows {
		tb.AddValues(full.Tables[0].Cells()[r])
	}
	tb.AddNote("seed 42")
	m := full.Meta
	m.Range = &CellRange{Lo: lo, Hi: hi, Total: total}
	return &Run{Meta: m, Tables: []*metrics.Table{tb}}
}

func TestMergeRangesTiling(t *testing.T) {
	full := demoRun(3, 9)
	full.Tables[0].AddRow(60, "TAS", 1.5, 4.5)
	// Three uneven contiguous ranges tiling [0,6).
	a := rangePart(full, 0, 2, 6, 0)
	b := rangePart(full, 2, 5, 6, 1)
	c := rangePart(full, 5, 6, 6, 2)

	merged, err := Merge(c, a, b) // arrival order must not matter
	if err != nil {
		t.Fatalf("merge: %v", err)
	}
	if merged.Meta.Range != nil {
		t.Fatalf("full-coverage merge kept partial metadata: %+v", merged.Meta)
	}
	if merged.Tables[0].String() != full.Tables[0].String() {
		t.Fatalf("merge not byte-identical:\n%s\nvs\n%s", merged.Tables[0], full.Tables[0])
	}

	// Partial coverage keeps the combined range, still mergeable.
	ab, err := MergeRanges(b, a)
	if err != nil {
		t.Fatalf("partial merge: %v", err)
	}
	if r := ab.Meta.Range; r == nil || r.Lo != 0 || r.Hi != 5 || r.Total != 6 {
		t.Fatalf("combined range = %v, want [0,5)/6", ab.Meta.Range)
	}
	if got, err := Merge(ab, c); err != nil || got.Meta.Range != nil {
		t.Fatalf("merge of coalesced segment failed: %v / %+v", err, got)
	}
}

func TestMergeRangesErrors(t *testing.T) {
	full := demoRun(3, 9)
	full.Tables[0].AddRow(60, "TAS", 1.5, 4.5)
	a := rangePart(full, 0, 2, 6, 0)
	c := rangePart(full, 5, 6, 6, 2)

	if _, err := MergeRanges(a, c); err == nil || !strings.Contains(err.Error(), "missing") {
		t.Fatalf("gap not refused: %v", err)
	}
	over := rangePart(full, 1, 3, 6, 1)
	if _, err := MergeRanges(a, over); err == nil || !strings.Contains(err.Error(), "overlap") {
		t.Fatalf("overlap not refused: %v", err)
	}
	other := rangePart(full, 2, 3, 3, 1)
	if _, err := MergeRanges(a, other); err == nil || !strings.Contains(err.Error(), "totals") {
		t.Fatalf("mismatched totals not refused: %v", err)
	}
	seed7 := rangePart(full, 2, 6, 6, 1, 2)
	seed7.Meta.Seed = 7
	if _, err := MergeRanges(a, seed7); err == nil || !strings.Contains(err.Error(), "different options") {
		t.Fatalf("mixed seeds not refused: %v", err)
	}
	spec := rangePart(full, 2, 6, 6, 1, 2)
	spec.Meta.SpecHash = "bbbb00000000"
	if _, err := MergeRanges(a, spec); err == nil || !strings.Contains(err.Error(), "spec revision") {
		t.Fatalf("mixed spec revisions not refused: %v", err)
	}
	if _, err := MergeRanges(demoRun(1, 1)); err == nil || !strings.Contains(err.Error(), "not a partial run") {
		t.Fatalf("non-partial run not refused: %v", err)
	}
	bad := rangePart(full, 4, 2, 6, 0)
	if _, err := MergeRanges(bad); err == nil || !strings.Contains(err.Error(), "bad cell range") {
		t.Fatalf("inverted range not refused: %v", err)
	}
}

// TestMergeMixedShardAndRange pins the stored form older stores hold:
// a run file carrying shard_index/shard_count loads as the cell range
// [i,i+1)/n, stays out of List, and merges byte-identically with a
// -cells part.
func TestMergeMixedShardAndRange(t *testing.T) {
	full := demoRun(3, 9)
	full.Tables[0].AddRow(60, "TAS", 1.5, 4.5)
	a := rangePart(full, 0, 2, 3, 0, 1)
	old := rangePart(full, 0, 0, 0, 2)
	old.Meta.Range = nil
	old.Meta.ShardIndex, old.Meta.ShardCount = 2, 3
	b, err := Encode(old) // the bytes an older store saved for -shard 2/3
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(b, []byte(`"shard_index": 2,`)) || !bytes.Contains(b, []byte(`"shard_count": 3,`)) {
		t.Fatalf("test run does not carry the stored shard form:\n%s", b)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "demo.shard2-of-3.json")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if r := s.Meta.Range; r == nil || *r != (CellRange{Lo: 2, Hi: 3, Total: 3}) ||
		s.Meta.ShardIndex != 0 || s.Meta.ShardCount != 0 {
		t.Fatalf("stored shard 2/3 loaded as range %v (shard %d/%d), want [2,3)/3",
			s.Meta.Range, s.Meta.ShardIndex, s.Meta.ShardCount)
	}
	if ids, err := List(dir); err != nil || len(ids) != 0 {
		t.Fatalf("List picked up a stored shard: %v (%v)", ids, err)
	}
	merged, err := Merge(a, s)
	if err != nil {
		t.Fatalf("mixed shard+range merge: %v", err)
	}
	got, err := Encode(merged)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Encode(full)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("mixed merge not byte-identical:\n%s\nvs\n%s", got, want)
	}
}

func TestSaveRangeFilename(t *testing.T) {
	dir := t.TempDir()
	r := demoRun(1, 1)
	r.Meta.Range = &CellRange{Lo: 3, Hi: 7, Total: 12}
	path, err := Save(dir, r)
	if err != nil {
		t.Fatalf("save: %v", err)
	}
	if want := filepath.Join(dir, "demo.cells3-7-of-12.json"); path != want {
		t.Fatalf("range part saved to %s, want %s", path, want)
	}
	// Partial range files are excluded from List, like shard files.
	if ids, _ := List(dir); len(ids) != 0 {
		t.Fatalf("List picked up range files: %v", ids)
	}
}
