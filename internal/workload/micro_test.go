package workload

import (
	"testing"

	"lockin/internal/core"
	"lockin/internal/machine"
)

func shortCfg(seed int64, k core.Kind, threads int) MicroConfig {
	cfg := DefaultMicroConfig(seed)
	cfg.Factory = FactoryFor(k)
	cfg.Threads = threads
	cfg.Warmup = 200_000
	cfg.Duration = 5_000_000
	return cfg
}

func TestRunMicroSingleThread(t *testing.T) {
	r := RunMicro(shortCfg(1, core.KindTAS, 1))
	if r.Ops == 0 {
		t.Fatal("no operations measured")
	}
	if r.Throughput() <= 0 || r.TPP() <= 0 {
		t.Fatalf("bad metrics: thr %.0f tpp %.0f", r.Throughput(), r.TPP())
	}
	p := r.Power().Total
	// One active core on the Xeon: ≈55-75 W.
	if p < 50 || p > 90 {
		t.Fatalf("power %.1f W out of range for one thread", p)
	}
}

func TestRunMicroContended(t *testing.T) {
	r := RunMicro(shortCfg(1, core.KindTicket, 10))
	if r.Ops == 0 {
		t.Fatal("no ops under contention")
	}
	// Serialization: throughput bounded by CS length (1000 cycles →
	// ≤2.8M acq/s at 2.8 GHz, modulo handover overhead).
	if thr := r.Throughput(); thr > 2.9e6 {
		t.Fatalf("throughput %.0f exceeds the serial bound", thr)
	}
	// Each worker's tally: FIFO TICKET serves all ten, and the tallies
	// add up to the total, which covers at least the window's ops.
	if len(r.Acquires) != 10 {
		t.Fatalf("%d worker tallies, want 10", len(r.Acquires))
	}
	var sum uint64
	for i, n := range r.Acquires {
		if n == 0 {
			t.Errorf("worker %d never acquired under TICKET", i)
		}
		sum += n
	}
	if sum != r.TotalAcquires || sum < r.Ops {
		t.Fatalf("tallies sum to %d, total %d, window ops %d", sum, r.TotalAcquires, r.Ops)
	}
}

func TestRunMicroLatencyHistogram(t *testing.T) {
	cfg := shortCfg(1, core.KindMutexee, 8)
	cfg.RecordLatency = true
	r := RunMicro(cfg)
	if r.Latency == nil || r.Latency.Count() == 0 {
		t.Fatal("latency histogram empty")
	}
	if r.Latency.Percentile(0.5) == 0 {
		t.Fatal("zero median latency under contention")
	}
}

func TestRunMicroMultipleLocksReduceContention(t *testing.T) {
	one := shortCfg(3, core.KindTTAS, 16)
	one.CS, one.Outside = 2000, 200
	many := one
	many.Locks = 128
	r1 := RunMicro(one)
	rm := RunMicro(many)
	if rm.Throughput() <= r1.Throughput() {
		t.Fatalf("128 locks (%.0f op/s) should outperform 1 lock (%.0f op/s)",
			rm.Throughput(), r1.Throughput())
	}
}

func TestRunMicroDeterministic(t *testing.T) {
	a := RunMicro(shortCfg(5, core.KindMutex, 6))
	b := RunMicro(shortCfg(5, core.KindMutex, 6))
	if a.Ops != b.Ops || a.EndTime != b.EndTime {
		t.Fatalf("nondeterministic: ops %d/%d end %d/%d", a.Ops, b.Ops, a.EndTime, b.EndTime)
	}
}

func TestRunMicroAllKindsTerminate(t *testing.T) {
	for _, k := range core.AllKinds() {
		k := k
		t.Run(k.String(), func(t *testing.T) {
			cfg := shortCfg(2, k, 12)
			cfg.Duration = 3_000_000
			r := RunMicro(cfg)
			if r.Ops == 0 {
				t.Fatal("no ops")
			}
			if r.Machine.Sched.Live() != 0 {
				t.Fatalf("%d threads still live after drain", r.Machine.Sched.Live())
			}
		})
	}
}

func TestCustomFactory(t *testing.T) {
	cfg := shortCfg(1, core.KindMutex, 4)
	cfg.Factory = func(m *machine.Machine) core.Lock {
		return core.NewTTAS(m, machine.WaitPause)
	}
	r := RunMicro(cfg)
	if r.Locks[0].Name() != "TTAS" {
		t.Fatal("custom factory ignored")
	}
	if r.Ops == 0 {
		t.Fatal("no ops")
	}
}

func TestFactoryNamed(t *testing.T) {
	f, err := FactoryNamed("TAS-BO")
	if err != nil || f(machine.NewDefault(1)).Name() != "TAS-BO" {
		t.Fatalf("FactoryNamed(TAS-BO): %v", err)
	}
	_, err = FactoryNamed("nope")
	const want = `workload: unknown lock kind "nope" (have MUTEX, TAS, TTAS, TICKET, MCS, CLH, MUTEXEE, HTICKET, MWAIT, MWAIT-K, TAS-BO, TICKET-PAUSE)`
	if err == nil || err.Error() != want {
		t.Fatalf("FactoryNamed(nope) error %v, want %s", err, want)
	}
}
