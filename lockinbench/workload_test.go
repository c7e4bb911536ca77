package main

import (
	"testing"
	"time"
)

// TestGoMetricsLeaveOutHarnessWork runs, traced, a workload whose rounds
// only sleep. The go.* metrics cover the timed phase, so nothing the
// harness does between rounds, such as the calibration loop and the full
// collection before it, may show in them. A forced collection per round
// would make go.gc_cycles at least the number of rounds; the rounds
// themselves allocate next to nothing, which leaves room for a natural
// collection or two.
func TestGoMetricsLeaveOutHarnessWork(t *testing.T) {
	if testing.Short() {
		t.Skip("times the calibration loop")
	}
	idle := benchWorkload{name: "idle", setup: func(*config, *measurement) (instance, error) {
		return rounds(func(int) (roundResult, error) {
			time.Sleep(20 * time.Millisecond)
			return roundResult{ops: 1}, nil
		}), nil
	}}
	c := &config{seed: 1, seconds: 1, size: 1, noGolden: true,
		scratch: t.TempDir(), out: t.TempDir(), tracer: newTracer("idle")}
	r, err := runWorkload(idle, c)
	if err != nil {
		t.Fatal(err)
	}
	cycles, n := r.Metrics["go.gc_cycles"].Value, len(r.RoundS)
	if 2*cycles >= float64(n) {
		t.Errorf("go.gc_cycles %v over %d rounds: it grows with the rounds", cycles, n)
	}
}
