package core_test

import (
	"testing"

	"lockin/internal/core"
	"lockin/internal/workload"
)

// BenchmarkMutexHerd simulates one cell shaped like a sleep-storm cell:
// 20 threads on the 40-context Xeon take one MUTEX, hold it for 2000
// cycles and work 500 outside it, for 200K warm-up and 4M measured
// cycles. Contended acquisitions sleep with FUTEX_WAIT and are handed
// over with FUTEX_WAKE, whose kernel-side steps run as callbacks. It is
// the sleep-side twin of machine's BenchmarkTASHerd.
func BenchmarkMutexHerd(b *testing.B) {
	b.ReportAllocs()
	var acquired uint64
	for i := 0; i < b.N; i++ {
		cfg := workload.DefaultMicroConfig(42)
		cfg.Factory = workload.FactoryFor(core.KindMutex)
		cfg.Threads, cfg.CS, cfg.Outside = 20, 2000, 500
		cfg.Warmup, cfg.Duration = 200_000, 4_000_000
		acquired += workload.RunMicro(cfg).TotalAcquires
	}
	b.ReportMetric(float64(acquired)/float64(b.N), "acquires/op")
}
