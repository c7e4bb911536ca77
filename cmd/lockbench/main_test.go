package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"lockin/internal/experiments"
)

// TestDiffComparesPastAMissingBaseline: -experiment all -baseline -diff
// against a store that lacks one experiment reports that one, still
// compares every other experiment, and exits 1.
func TestDiffComparesPastAMissingBaseline(t *testing.T) {
	if testing.Short() {
		t.Skip("builds lockbench and runs the quick suite twice")
	}
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go tool on PATH")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "lockbench")
	if out, err := exec.Command(goTool, "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build lockbench: %v\n%s", err, out)
	}
	store := filepath.Join(dir, "store")
	args := []string{"-experiment", "all", "-quick", "-scale", "0.25", "-workers", "2"}
	if out, err := exec.Command(bin, append(args, "-json", store)...).CombinedOutput(); err != nil {
		t.Fatalf("save the baseline: %v\n%s", err, out)
	}
	const missing = "fig3"
	if err := os.Remove(filepath.Join(store, missing+".json")); err != nil {
		t.Fatal(err)
	}

	cmd := exec.Command(bin, append(args, "-baseline", store, "-diff")...)
	var stderr strings.Builder
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("-diff against a store without %s: %v, want exit status 1\nstderr:\n%s", missing, err, stderr.String())
	}
	if !strings.Contains(stderr.String(), "no stored run for experiment "+missing) {
		t.Errorf("stderr does not name the missing baseline:\n%s", stderr.String())
	}
	for _, e := range experiments.All() {
		line := "### " + e.ID + " vs baseline "
		has := strings.Contains(string(out), line)
		switch {
		case e.ID == missing && has:
			t.Errorf("%s has no baseline but printed a comparison", e.ID)
		case e.ID != missing && !has:
			t.Errorf("%s was not compared after the missing %s", e.ID, missing)
		case e.ID != missing && !strings.Contains(string(out), line+store+" (tol 0): no differences"):
			t.Errorf("%s differs from its own baseline", e.ID)
		}
	}
}
