package workload

import (
	"testing"

	"lockin/internal/machine"
	"lockin/internal/sim"
)

// TestRunnerWindowRule pins the measurement window every experiment
// shares. Four threads run fixed-cost operations whose cost grows by
// one cycle per iteration, so no two latencies of a thread are equal
// and the warm-up's operations are cheaper, the last ones dearer, than
// any counted one. Even threads Note their operations, odd ones only
// Count them.
func TestRunnerWindowRule(t *testing.T) {
	const (
		warmup   = sim.Cycles(100_000)
		duration = sim.Cycles(1_000_000)
		threads  = 4
	)
	type op struct {
		start, end sim.Cycles
		noted      bool // the thread Noted it rather than Counted it
		counted    bool // what Note or Count reported
	}
	var ops []op
	r := NewRunner(machine.DefaultConfig(1), warmup, duration)
	for i := 0; i < threads; i++ {
		noted := i%2 == 0
		cost := sim.Cycles(7_001 + 1_000*i) // divides neither boundary
		r.M.Spawn("op", func(th *machine.Thread) {
			for n := sim.Cycles(0); r.Running(th); n++ {
				start := th.Proc().Now()
				th.Compute(cost + n)
				var counted bool
				if noted {
					counted = r.Note(th, start)
				} else {
					counted = r.Count(th)
				}
				ops = append(ops, op{start, th.Proc().Now(), noted, counted})
			}
		})
	}
	res := r.Finish()

	if res.Window != duration {
		t.Errorf("Window = %d, want the duration %d", res.Window, duration)
	}
	var inWindow, before, after, notedIn uint64
	var sum float64
	minLat, maxLat := ^uint64(0), uint64(0)
	for _, o := range ops {
		if o.start >= warmup+duration {
			t.Errorf("an operation started at %d, at or after the window's end %d", o.start, warmup+duration)
		}
		in := o.end >= warmup && o.end < warmup+duration
		if o.counted != in {
			t.Errorf("operation [%d, %d): counted %v, ends inside [%d, %d) %v",
				o.start, o.end, o.counted, warmup, warmup+duration, in)
		}
		switch {
		case in:
			inWindow++
		case o.end < warmup:
			before++
		default:
			after++
		}
		if in && o.noted {
			lat := uint64(o.end - o.start)
			notedIn++
			sum += float64(lat)
			minLat, maxLat = min(minLat, lat), max(maxLat, lat)
		}
	}
	if before == 0 || after == 0 {
		t.Fatalf("%d operations ended in the warm-up and %d after the window; the test needs both", before, after)
	}
	if res.Ops != inWindow {
		t.Errorf("Ops = %d, want the %d operations that end inside the window", res.Ops, inWindow)
	}
	h := res.Latency
	if h.Count() != notedIn || h.Min() != minLat || h.Max() != maxLat || h.Mean() != sum/float64(notedIn) {
		t.Errorf("latency histogram holds %d (min %d, max %d, mean %g), want the %d Noted operations of the window (min %d, max %d, mean %g)",
			h.Count(), h.Min(), h.Max(), h.Mean(), notedIn, minLat, maxLat, sum/float64(notedIn))
	}
}
