//go:build race

package sim

// raceDetector reports a binary built with -race. The race detector
// keeps about 250 KB of state for every goroutine the binary ever
// started, and each proc is one, so the randomized driver-stack test
// runs fewer seeds under it (see TestDriverStackMatchesHeapModel).
const raceDetector = true
