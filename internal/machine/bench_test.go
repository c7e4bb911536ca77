package machine

import "testing"

// BenchmarkTASHerd simulates one cell of a contended test-and-set lock:
// 40 threads on the 40-context Xeon take the lock with SpinAcquire, as
// core.TAS does, for 2M cycles. Every release sends the whole herd after
// the word, and the lost retries run as kernel callbacks.
func BenchmarkTASHerd(b *testing.B) {
	b.ReportAllocs()
	var acquired uint64
	for i := 0; i < b.N; i++ {
		m := NewDefault(42)
		n := spawnTASHerd(m, m.NewLine("tas"), 40, 1000, 100, 2_000_000, nil)
		m.K.Drain()
		acquired += *n
	}
	b.ReportMetric(float64(acquired)/float64(b.N), "acquires/op")
}
