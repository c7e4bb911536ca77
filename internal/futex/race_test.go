//go:build race

package futex

// raceDetector reports a binary built with -race. The race detector
// keeps about 250 KB of state for every goroutine the binary ever
// started, and each simulated thread is one, so the reference table
// runs a subset of itself under it (see TestCallsMatchReference).
const raceDetector = true
