package scenario_test

// Behaviour tests of the §6 systems: the Table 3 configurations,
// points of the bundled specs, each run on a workload.Runner.

import (
	"testing"

	"lockin/internal/core"
	"lockin/internal/scenario"
	"lockin/internal/workload"
)

const (
	testWarmup = 300_000
	testDur    = 8_000_000
)

// config returns the Table 3 configuration with the given ID.
func config(t *testing.T, id string) scenario.SystemConfig {
	t.Helper()
	for _, s := range scenario.Table3() {
		if s.ID() == id {
			return s
		}
	}
	t.Fatalf("no Table 3 configuration %q", id)
	return scenario.SystemConfig{}
}

func run(s scenario.SystemConfig, k core.Kind, seed int64) workload.Result {
	return s.Run(k.String(), seed, testWarmup, testDur)
}

func TestAllDefinitionsProduceWork(t *testing.T) {
	for _, s := range scenario.Table3() {
		t.Run(s.ID(), func(t *testing.T) {
			if testing.Short() && s.Threads() > 16 {
				t.Skip("short mode")
			}
			r := run(s, core.KindMutex, 1)
			if r.Ops == 0 {
				t.Fatal("no operations")
			}
			if r.Latency.Count() == 0 {
				t.Fatal("no latencies recorded")
			}
			if r.Power().Total < 50 {
				t.Fatalf("implausible power %.1f W", r.Power().Total)
			}
		})
	}
}

func TestSeventeenConfigs(t *testing.T) {
	if n := len(scenario.Table3()); n != 17 {
		t.Fatalf("Table 3 has 17 cells, got %d", n)
	}
	seen := map[string]bool{}
	for _, s := range scenario.Table3() {
		if seen[s.ID()] {
			t.Fatalf("duplicate definition %s", s.ID())
		}
		seen[s.ID()] = true
	}
}

func TestHamsterDBSpinBeatsSleep(t *testing.T) {
	// §6.1: on HamsterDB, avoiding sleeping improves throughput
	// substantially (TICKET 1.26-1.85x over MUTEX).
	s := config(t, "HamsterDB/WT")
	mutex := run(s, core.KindMutex, 1)
	ticket := run(s, core.KindTicket, 1)
	ratio := ticket.Throughput() / mutex.Throughput()
	if ratio < 1.05 {
		t.Fatalf("TICKET/MUTEX throughput ratio %.2f, want >1 (paper: 1.38)", ratio)
	}
}

func TestMySQLTicketCollapsesUnderOversubscription(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	s := config(t, "MySQL/MEM") // 64 threads on 40 contexts
	f := func(k core.Kind) workload.Result {
		return s.Run(k.String(), 1, testWarmup, 60_000_000)
	}
	mutex := f(core.KindMutex)
	ticket := f(core.KindTicket)
	ratio := ticket.Throughput() / mutex.Throughput()
	if ratio > 0.6 {
		t.Fatalf("TICKET/MUTEX ratio %.2f under oversubscription, want collapse (paper: 0.01)", ratio)
	}
}

func TestRocksDBLockInsensitive(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	// §6.1: RocksDB's write queue means the lock choice barely matters.
	s := config(t, "RocksDB/WT/RD")
	mutex := run(s, core.KindMutex, 1)
	mutexee := run(s, core.KindMutexee, 1)
	ratio := mutexee.Throughput() / mutex.Throughput()
	if ratio < 0.75 || ratio > 1.6 {
		t.Fatalf("MUTEXEE/MUTEX ratio %.2f on RocksDB, want ≈1 (paper: 1.02-1.11)", ratio)
	}
}

func TestDeterministicSystemRuns(t *testing.T) {
	s := config(t, "Memcached/SET")
	a := run(s, core.KindMutexee, 9)
	b := run(s, core.KindMutexee, 9)
	if a.Ops != b.Ops {
		t.Fatalf("nondeterministic: %d vs %d ops", a.Ops, b.Ops)
	}
}
