package power

import (
	"fmt"
	"testing"

	"lockin/internal/sim"
	"lockin/internal/topo"
)

// BenchmarkMeterTransition measures one activity transition on the Xeon
// with busy contexts running: a Compute↔SpinLocal flip of one of them
// after the clock has moved, so every transition integrates and folds
// the previous one's change. busy=10 fills socket 0's cores, busy=20
// every core, busy=40 every hyper-thread.
func BenchmarkMeterTransition(b *testing.B) {
	for _, busy := range []int{10, 20, 40} {
		b.Run(fmt.Sprintf("busy=%d", busy), func(b *testing.B) {
			k := sim.NewKernel(1)
			m := NewMeter(k, DefaultConfig(), topo.Xeon())
			for ctx := 0; ctx < busy; ctx++ {
				m.SetActivity(ctx, Compute)
			}
			b.ReportAllocs()
			ctx := 0
			for b.Loop() {
				ctx = (ctx + 7) % busy
				k.Run(k.Now() + 10)
				if m.Activity(ctx) == Compute {
					m.SetActivity(ctx, SpinLocal)
				} else {
					m.SetActivity(ctx, Compute)
				}
			}
		})
	}
}
