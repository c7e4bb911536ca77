package main

import (
	"math"
	"os"
	"testing"
)

func TestSelfTime(t *testing.T) {
	spans := withSelfTime([]span{
		{ID: 1, Start: 0, End: 10},
		// Two overlapping children cover [1, 6); the third lies partly
		// outside its parent and counts only for [8, 10).
		{ID: 2, Parent: 1, Start: 1, End: 4},
		{ID: 3, Parent: 1, Start: 2, End: 6},
		{ID: 4, Parent: 1, Start: 8, End: 12},
		{ID: 5, Parent: 3, Start: 2, End: 3},
	})
	want := map[int]float64{1: 10 - 5 - 2, 2: 3, 3: 4 - 1, 4: 4, 5: 1}
	for _, s := range spans {
		if math.Abs(s.Self-want[s.ID]) > 1e-12 {
			t.Errorf("span %d self time %v, want %v", s.ID, s.Self, want[s.ID])
		}
	}
}

func TestTracerNilIsNoop(t *testing.T) {
	var tr *tracer
	tr.end(tr.begin("x", 0))
}

// TestLayerSharesFromTraces parses a checked-in `go tool pprof -traces`
// output and attributes each stack to its leaf-most lockin frame.
func TestLayerSharesFromTraces(t *testing.T) {
	f, err := os.Open("testdata/pprof-traces.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	samples, err := parseTraces(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 8 {
		t.Fatalf("parsed %d stacks, want 8", len(samples))
	}
	if got := samples[1].Frames[0]; got != "runtime.mcall" {
		t.Errorf("leaf frame %q, want runtime.mcall without the (inline) marker", got)
	}
	shares := layerShares(samples)
	want := map[string]float64{
		"sim":     0.5,  // 60ms in sim, 40ms of runtime handoff on top of sim
		"power":   0.15, // its caller, machine, is not the leaf-most lockin frame
		"results": 0.1,  // encoding/json under results.Decode
		"sweep":   0.05, // generic instantiation
		"other":   0.05, // lockin/internal/bench/opts
		"bench":   0.05, // encoding/json called from the harness itself
		"runtime": 0.1,  // no lockin frame at all
	}
	sum := 0.0
	for _, l := range shareLayers {
		sum += shares[l]
		if math.Abs(shares[l]-want[l]) > 1e-9 {
			t.Errorf("%s share %v, want %v", l, shares[l], want[l])
		}
	}
	if len(shares) != len(shareLayers) || math.Abs(sum-1) > 1e-9 {
		t.Errorf("%d shares summing to %v, want %d summing to 1", len(shares), sum, len(shareLayers))
	}
}

func TestParseWeight(t *testing.T) {
	for in, want := range map[string]float64{"10ms": 0.01, "1.50s": 1.5, "250us": 250e-6, "250µs": 250e-6, "3ns": 3e-9,
		"1.50mins": 90, "2hrs": 7200} {
		if got, err := parseWeight(in); err != nil || math.Abs(got-want) > 1e-15 {
			t.Errorf("parseWeight(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := parseWeight("12parsecs"); err == nil {
		t.Error("an unknown unit must be an error")
	}
}
