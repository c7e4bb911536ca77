package experiments

import (
	"strings"
	"sync/atomic"
	"testing"
)

// renderAll runs an experiment and renders every returned table,
// including notes, so byte-level comparison covers the full output.
func renderAll(t *testing.T, id string, o Options) string {
	t.Helper()
	e, err := Find(id)
	if err != nil {
		t.Fatalf("find %s: %v", id, err)
	}
	var b strings.Builder
	for _, tab := range e.Run(o) {
		b.WriteString(tab.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// TestParallelSweepMatchesSerial is the acceptance test of the sweep
// engine: for a fixed seed, a parallel run (Workers=8) must produce
// byte-identical tables to the serial fallback (Workers=1). It covers
// the microbenchmark path (fig11), the ratio/baseline path (fig10),
// and the §6 systems path (fig13, which package scenario registers;
// see sect6_test.go).
func TestParallelSweepMatchesSerial(t *testing.T) {
	for _, id := range []string{"fig11", "fig10", "fig13"} {
		id := id
		t.Run(id, func(t *testing.T) {
			o := Options{Seed: 42, Scale: 0.25, Quick: true}
			o.Workers = 1
			serial := renderAll(t, id, o)
			o.Workers = 8
			parallel := renderAll(t, id, o)
			if serial != parallel {
				t.Fatalf("%s output differs between Workers=1 and Workers=8:\n--- serial ---\n%s\n--- parallel ---\n%s",
					id, serial, parallel)
			}
		})
	}
}

// TestSweepSeedIndependentOfWorkers re-runs one experiment with an odd
// worker count to rule out grain-dependent seed assignment.
func TestSweepSeedIndependentOfWorkers(t *testing.T) {
	o := Options{Seed: 7, Scale: 0.25, Quick: true, Workers: 1}
	serial := renderAll(t, "tbl2", o)
	o.Workers = 3
	if got := renderAll(t, "tbl2", o); got != serial {
		t.Fatalf("tbl2 output differs between Workers=1 and Workers=3:\n%s\nvs\n%s", got, serial)
	}
}

// TestProgressReportsEveryCell checks the progress plumbing from
// experiment options down to the engine.
func TestProgressReportsEveryCell(t *testing.T) {
	var calls, totalSeen int32
	o := Options{Seed: 42, Scale: 0.25, Quick: true, Workers: 4,
		Progress: func(done, total int) {
			atomic.AddInt32(&calls, 1)
			atomic.StoreInt32(&totalSeen, int32(total))
		}}
	renderAll(t, "tbl2", o)
	if calls == 0 {
		t.Fatal("progress callback never invoked")
	}
	if totalSeen != int32(len(evalKinds)) {
		t.Fatalf("progress total %d, want %d", totalSeen, len(evalKinds))
	}
}
