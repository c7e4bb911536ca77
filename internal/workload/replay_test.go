package workload

import (
	"math"
	"runtime"
	"testing"

	"lockin/internal/core"
	"lockin/internal/machine"
	"lockin/internal/power"
	"lockin/internal/sim"
)

// TestMeterReplayIndependentOfGOMAXPROCS: the power meter's helper
// replays logged transitions on an idle CPU when there is one, and
// interleaves with the simulation when there is none. Neither may move a
// bit. An oversubscribed MUTEX cell and a 40-thread TAS cell read Energy
// at five instants, far enough apart for at least 8 batches of
// transitions between readings (the TAS herd logs about 36 batches per
// million cycles, the MUTEX cell about 2), and must read the same bits,
// the same ops and the same end time at GOMAXPROCS 1 and 2.
func TestMeterReplayIndependentOfGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	run := func(k core.Kind, threads int, every sim.Cycles) []uint64 {
		var reads []power.Energy
		cfg := shortCfg(3, k, threads)
		cfg.Warmup, cfg.Duration = 100_000, 6*every
		cfg.Factory = func(m *machine.Machine) core.Lock {
			for i := sim.Cycles(1); i <= 5; i++ {
				m.K.Schedule(i*every, func() { reads = append(reads, m.Meter.Energy()) })
			}
			return core.New(m, k)
		}
		r := RunMicro(cfg)
		out := []uint64{r.Ops, r.TotalAcquires, uint64(r.EndTime)}
		for _, e := range append(reads, r.Energy) {
			out = append(out, math.Float64bits(e.Package), math.Float64bits(e.Cores), math.Float64bits(e.DRAM))
		}
		return out
	}
	for _, c := range []struct {
		kind    core.Kind
		threads int
		every   sim.Cycles
	}{{core.KindMutex, 80, 5_000_000}, {core.KindTAS, 40, 400_000}} {
		runtime.GOMAXPROCS(1)
		one := run(c.kind, c.threads, c.every)
		runtime.GOMAXPROCS(2)
		two := run(c.kind, c.threads, c.every)
		for i := range one {
			if one[i] != two[i] {
				t.Errorf("%v/%d: reading %d is %#x at GOMAXPROCS 1 and %#x at 2", c.kind, c.threads, i, one[i], two[i])
			}
		}
	}
}
