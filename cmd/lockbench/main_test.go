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

// buildLockbench builds the command into dir and returns the binary's
// path; it skips the test in short mode or without a go tool.
func buildLockbench(t *testing.T, dir string) string {
	t.Helper()
	if testing.Short() {
		t.Skip("builds lockbench and runs it")
	}
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go tool on PATH")
	}
	bin := filepath.Join(dir, "lockbench")
	if out, err := exec.Command(goTool, "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build lockbench: %v\n%s", err, out)
	}
	return bin
}

// TestDiffComparesPastAMissingBaseline: -experiment all -baseline -diff
// against a store that lacks one experiment reports that one, still
// compares every other experiment, and exits 1.
func TestDiffComparesPastAMissingBaseline(t *testing.T) {
	dir := t.TempDir()
	bin := buildLockbench(t, dir)
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

// TestLoadDiffExitWritesProfiles: -load with -baseline -diff exits 1 on
// a difference, and still writes the CPU and heap profiles it was asked
// for, as the simulating path's -diff exit does.
func TestLoadDiffExitWritesProfiles(t *testing.T) {
	dir := t.TempDir()
	bin := buildLockbench(t, dir)
	run := func(seed string) string {
		store := filepath.Join(dir, "seed"+seed)
		args := []string{"-experiment", "ext_future", "-quick", "-scale", "0.1", "-seed", seed, "-json", store}
		if out, err := exec.Command(bin, args...).CombinedOutput(); err != nil {
			t.Fatalf("store a run at seed %s: %v\n%s", seed, err, out)
		}
		return filepath.Join(store, "ext_future.json")
	}
	a, b := run("1"), run("2")
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	out, err := exec.Command(bin, "-load", a, "-baseline", b, "-diff", "-cpuprofile", cpu, "-memprofile", mem).CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("-load seed 1 -baseline seed 2 -diff: %v, want exit status 1\n%s", err, out)
	}
	for _, p := range []string{cpu, mem} {
		fi, err := os.Stat(p)
		if err == nil && fi.Size() == 0 {
			err = errors.New("empty file")
		}
		if err != nil {
			t.Errorf("profile %s after the -diff exit: %v", filepath.Base(p), err)
		}
	}
}
