package main

import (
	"math"
	"os"
	"path/filepath"
	"testing"
)

// smokeSize runs every workload at 1/20 of its declared work.
const smokeSize = 0.05

// TestSmoke runs each workload once, shrunk, through the same code path
// as a real run: untraced, and spin-storm traced as well. It checks that
// no operation fails and that every reported metric is a finite number,
// every end-to-end one above zero.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates every workload")
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			// Long enough that serve-mixed completes every kind of
			// operation after its calibration loop, which takes 0.2 s.
			c := &config{seed: 42, seconds: 1, size: smokeSize, scratch: t.TempDir()}
			r, err := runWorkload(w, c)
			if err != nil {
				t.Fatal(err)
			}
			if !r.Correct || r.Attempted == 0 || r.Failed != 0 {
				t.Fatalf("correct %v, attempted %d, failed %d", r.Correct, r.Attempted, r.Failed)
			}
			for name, v := range r.Metrics {
				if !(v.Value > 0) || math.IsInf(v.Value, 0) {
					t.Errorf("%s = %v", name, v.Value)
				}
			}
		})
	}
	t.Run("spin-storm traced", func(t *testing.T) {
		c := &config{seed: 42, seconds: 0.2, size: smokeSize, scratch: t.TempDir(), out: t.TempDir(), tracer: newTracer("spin-storm")}
		r, err := runWorkload(workloads[0], c)
		if err != nil {
			t.Fatal(err)
		}
		sum := 0.0
		for _, l := range shareLayers {
			sum += r.Metrics[l+".cpu_share"].Value
		}
		if math.Abs(sum-1) > 0.01 {
			t.Errorf("cpu shares sum to %v", sum)
		}
		if r.Metrics["futex.waits"].Value != 0 || r.Metrics["coherence.transfers"].Value == 0 {
			t.Errorf("spin-storm: futex.waits %v, coherence.transfers %v", r.Metrics["futex.waits"].Value, r.Metrics["coherence.transfers"].Value)
		}
		for _, f := range []string{"cpu.pprof", "spans.json", "layers.json"} {
			if _, err := os.Stat(filepath.Join(c.out, f)); err != nil {
				t.Error(err)
			}
		}
	})
}
