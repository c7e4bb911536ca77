//go:build !race

package core_test

// raceDetector reports a binary built with -race (see race_test.go).
const raceDetector = false
