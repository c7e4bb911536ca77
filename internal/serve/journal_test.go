package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"lockin/internal/bench/opts"
	"lockin/internal/experiments"
	"lockin/internal/results"
	"lockin/internal/scenario"
)

// journalSpec mirrors serve_test.testSpec (the external test package's
// helpers are out of reach here): a 1×1×2 grid that simulates in well
// under a second.
const journalSpec = `{
  "name": "journaltest",
  "title": "Scenario journaltest — replay e2e grid",
  "warmup_cycles": 50000,
  "duration_cycles": 1000000,
  "locks": [{"name": "hot", "topology": "single"}],
  "groups": [
    {"name": "worker", "threads": 0, "outside_cycles": 400,
     "ops": [{"lock": "hot"}]}
  ],
  "sweep": {
    "threads": [2],
    "cs": [800],
    "locks": ["MUTEX", "MUTEXEE"]
  }
}`

// specExperiment compiles journalSpec the way handleSubmit would.
func specExperiment(t *testing.T) experiments.Experiment {
	t.Helper()
	c, err := scenario.ParseAndCompile([]byte(journalSpec))
	if err != nil {
		t.Fatal(err)
	}
	return c.Experiment()
}

// writeJournal hand-writes a journal file the way a crashed process
// would have left it: accepted lines, never compacted away.
func writeJournal(t *testing.T, dir string, lines ...[]byte) {
	t.Helper()
	var buf bytes.Buffer
	for _, l := range lines {
		buf.Write(l)
		buf.WriteByte('\n')
	}
	if err := os.WriteFile(filepath.Join(dir, journalName), buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

// waitIdle polls until the journal is empty (every replayed entry
// landed) or the deadline passes.
func waitIdle(t *testing.T, s *Server) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for s.journal.count() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("journal still holds %d entries", s.journal.count())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestJournalReplay is the crash-recovery contract: a journal left by
// a dead process is replayed on startup, already-cached keys are
// skipped (idempotence), and the replayed run's bytes are identical —
// modulo Perf provenance — to simulating the same submission directly.
func TestJournalReplay(t *testing.T) {
	dir := t.TempDir()
	e := specExperiment(t)

	// Entry A: a spec submission, seed 7, pending and uncached, in the
	// journal's line format byte for byte: journals already on disk
	// must keep replaying, and the writer must keep producing it.
	oA := opts.Defaults()
	oA.Seed, oA.Quick = 7, true
	keyA := oA.RunMeta(e).CacheKey()
	var spec bytes.Buffer
	if err := json.Compact(&spec, []byte(journalSpec)); err != nil {
		t.Fatal(err)
	}
	lineA := fmt.Appendf(nil, `{"key":%q,"spec":%s,"seed":7,"scale":1,"quick":true}`, keyA, spec.Bytes())
	written, err := json.Marshal(journalEntry{Key: keyA,
		Job: opts.Job{Scenario: []byte(journalSpec), Seed: 7, Scale: 1, Quick: true}})
	if err != nil || !bytes.Equal(written, lineA) {
		t.Fatalf("journal line format changed (%v):\n got %s\nwant %s", err, written, lineA)
	}

	// Entry B: pending in the journal but already landed in the cache —
	// the crash hit between the atomic save and the compaction. Replay
	// must skip it, and must not disturb the stored bytes.
	oB := opts.Defaults()
	oB.Seed, oB.Quick = 8, true
	keyB := oB.RunMeta(e).CacheKey()
	cachedB := []byte(`{"sentinel":"must survive replay untouched"}`)
	if err := os.WriteFile(filepath.Join(dir, keyB+".json"), cachedB, 0o644); err != nil {
		t.Fatal(err)
	}
	lineB, err := json.Marshal(journalEntry{Key: keyB,
		Job: opts.Job{Scenario: []byte(journalSpec), Seed: 8, Scale: 1, Quick: true}})
	if err != nil {
		t.Fatal(err)
	}
	writeJournal(t, dir, lineA, lineB)

	s, err := New(Config{CacheDir: dir, Pool: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	waitIdle(t, s)

	if got := s.Simulated(); got != 1 {
		t.Errorf("Simulated = %d, want 1 (entry B was cached, only A replays)", got)
	}
	if got, err := s.cachedBytes(keyB); err != nil || !bytes.Equal(got, cachedB) {
		t.Errorf("cached entry B changed during replay (err %v):\n got %q\nwant %q", err, got, cachedB)
	}

	// Byte-identity of the replayed run against a direct simulation,
	// modulo Perf (wall-clock provenance is excluded from identity).
	stored, err := results.Load(s.cachePath(keyA))
	if err != nil {
		t.Fatalf("replayed run did not land: %v", err)
	}
	stored.Meta.Perf = nil
	direct := &results.Run{Meta: oA.RunMeta(e), Tables: e.Run(oA.Options)}
	want, err := results.Encode(direct)
	if err != nil {
		t.Fatal(err)
	}
	got, err := results.Encode(stored)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("replayed run differs from a direct simulation:\n got %s\nwant %s", got, want)
	}

	// A clean shutdown compacts the journal to empty.
	s.Close()
	b, err := os.ReadFile(filepath.Join(dir, journalName))
	if err != nil {
		t.Fatal(err)
	}
	if len(bytes.TrimSpace(b)) != 0 {
		t.Errorf("journal not empty after clean shutdown: %q", b)
	}
}

// TestJournalUnresolvableAndCorruptEntries starts over a journal whose
// entries cannot replay — an unknown experiment id and a torn line —
// and must come up clean instead of crash-looping.
func TestJournalUnresolvableAndCorruptEntries(t *testing.T) {
	dir := t.TempDir()
	var buf bytes.Buffer
	b, err := json.Marshal(journalEntry{Key: "gone-0000000000000000",
		Job: opts.Job{Experiment: "no-such-exp", Seed: 42, Scale: 1}})
	if err != nil {
		t.Fatal(err)
	}
	buf.Write(b)
	buf.WriteString("\n{\"key\":\"torn-entry") // crash mid-append
	if err := os.WriteFile(filepath.Join(dir, journalName), buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	s, err := New(Config{CacheDir: dir, Pool: 1})
	if err != nil {
		t.Fatalf("New over a bad journal: %v", err)
	}
	defer s.Close()
	if got := s.journal.count(); got != 0 {
		t.Errorf("journal pending = %d, want 0 (unresolvable entries drop)", got)
	}
	if got := s.Simulated(); got != 0 {
		t.Errorf("Simulated = %d, want 0", got)
	}
}

// TestEnqueueFindsALandedRun: a run that lands between a submission's
// cache check and its enqueue must not be simulated again. runJob
// stores a run before it drops the job from the table, under the lock
// enqueue holds, so enqueue finds the stored run and returns no job;
// handleSubmit then answers a cache hit.
func TestEnqueueFindsALandedRun(t *testing.T) {
	s, err := New(Config{CacheDir: t.TempDir(), Pool: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	e, o := specExperiment(t), opts.Defaults()
	key := o.RunMeta(e).CacheKey()
	if err := results.WriteAtomic(s.cachePath(key), []byte("{}")); err != nil {
		t.Fatal(err)
	}
	if j, attached, err := s.enqueue(key, e, o); j != nil || attached || err != nil {
		t.Fatalf("enqueue of a stored run = %v, %t, %v; want no job", j, attached, err)
	}
}
