package experiments_test

// Figures 13-15 register from package scenario, which imports this
// package, so only the external test package can link them. Importing
// scenario here puts them in this test binary's registry for every
// test of the package, internal ones included.

import (
	"strconv"
	"strings"
	"testing"

	"lockin/internal/experiments"
	_ "lockin/internal/scenario"
	"lockin/internal/sweep"
)

func TestFig13MutexeeImproves(t *testing.T) {
	e, err := experiments.Find("fig13")
	if err != nil {
		t.Fatal(err)
	}
	o := sweep.DefaultOptions()
	o.Quick, o.Scale = true, 0.5
	tab := e.Run(o)[0]
	// Average note for MUTEXEE must be > 1.
	found := false
	for _, n := range tab.Notes {
		if strings.HasPrefix(n, "MUTEXEE average") {
			found = true
			// The note reads "MUTEXEE average vs MUTEX: 1.23".
			v, err := strconv.ParseFloat(strings.TrimSpace(n[strings.LastIndex(n, ":")+1:]), 64)
			if err != nil {
				t.Fatalf("unparseable note %q", n)
			}
			if v < 1.0 {
				t.Fatalf("MUTEXEE average vs MUTEX %.2f, want >1", v)
			}
		}
	}
	if !found {
		t.Fatal("missing MUTEXEE average note")
	}
}
