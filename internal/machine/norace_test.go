//go:build !race

package machine

// raceDetector reports a binary built with -race (see race_test.go).
const raceDetector = false
