package experiments_test

import (
	"runtime"
	"testing"
	"time"

	"lockin/internal/experiments"
)

// TestNoGoroutineOutlivesARun is the leak gate over the whole registry,
// Figures 13-15 and the bundled scenarios included (sect6_test.go links
// package scenario). Every simulation ends with Drain, which releases the
// simulated threads still parked, so a finished run leaves no goroutine
// behind. Figure 3 parks its sleepers on a futex nobody wakes, and Figure
// 7's handover rings stop with threads waiting for the token: each such
// thread used to keep its whole machine alive for the life of the process.
func TestNoGoroutineOutlivesARun(t *testing.T) {
	o := experiments.DefaultOptions()
	o.Quick, o.Scale, o.Workers = true, 0.1, 1
	for _, e := range experiments.All() {
		before := runtime.NumGoroutine()
		e.Run(o)
		if n := settleGoroutines(before); n > before {
			t.Errorf("%s: %d goroutines after the run, want at most %d (%+d)", e.ID, n, before, n-before)
		}
	}
}

// settleGoroutines polls until at most want goroutines remain, for up to
// a second, and returns the last count: goroutines a run started may exit
// just after it returns.
func settleGoroutines(want int) int {
	deadline := time.Now().Add(time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= want || time.Now().After(deadline) {
			return n
		}
		time.Sleep(time.Millisecond)
	}
}
