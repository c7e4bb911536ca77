package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"lockin/internal/experiments"
)

// runAxesGolden holds the sweep metadata (results.Meta.Axes) of every
// bundled spec and every spec under testdata, in full and quick mode.
const runAxesGolden = "testdata/runaxes.golden"

// runAxesOfSpecs compiles every bundled spec, the two legacy specs and
// the repository's two testdata specs, and renders their RunAxes in
// full and in quick mode: a "<spec file> quick=<mode>" line, then each axis
// as one line of JSON, specs sorted by file.
func runAxesOfSpecs(t *testing.T) []byte {
	t.Helper()
	files := map[string][]byte{}
	ents, err := fs.ReadDir(specFS, "specs")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if files["specs/"+e.Name()], err = fs.ReadFile(specFS, "specs/"+e.Name()); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range []string{
		"testdata/legacy/hamsterdb_rd.json",
		"testdata/legacy/memcached.json",
		"../../testdata/quick-scenario.json",
		"../../testdata/multiaxis-scenario.json",
	} {
		if files[p], err = os.ReadFile(filepath.FromSlash(p)); err != nil {
			t.Fatal(err)
		}
	}
	var b bytes.Buffer
	for _, p := range slices.Sorted(maps.Keys(files)) {
		c, err := ParseAndCompile(files[p])
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		for _, quick := range []bool{false, true} {
			fmt.Fprintf(&b, "%s quick=%t\n", p, quick)
			for _, a := range c.RunAxes(experiments.Options{Quick: quick}) {
				line, err := json.Marshal(a)
				if err != nil {
					t.Fatal(err)
				}
				fmt.Fprintf(&b, "  %s\n", line)
			}
		}
	}
	return b.Bytes()
}

// TestRunAxesGolden pins the axis metadata a stored scenario run
// carries: each axis's name, typed values, column and nesting order,
// for every bundled and testdata spec in full and quick mode. Slice,
// project and serve's query endpoints read it, and the stdout digests
// do not cover it.
func TestRunAxesGolden(t *testing.T) {
	got := runAxesOfSpecs(t)
	want, err := os.ReadFile(runAxesGolden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("RunAxes differ from %s:\n%s", runAxesGolden, got)
	}
}

// TestEverySweepFieldHasOneAxis requires the axis table and SweepSpec
// to match one to one: setting one field of SweepSpec to two values
// changes the values of exactly one table entry, and each entry
// follows exactly one field.
func TestEverySweepFieldHasOneAxis(t *testing.T) {
	base := make([]int, len(axisTable))
	for i, d := range axisTable {
		base[i] = len(d.values(&SweepSpec{}))
	}
	fields := reflect.TypeOf(SweepSpec{})
	followers := make([]int, len(axisTable))
	for f := 0; f < fields.NumField(); f++ {
		var s SweepSpec
		field := reflect.ValueOf(&s).Elem().Field(f)
		field.Set(reflect.MakeSlice(field.Type(), 2, 2))
		var axes []string
		for i, d := range axisTable {
			if len(d.values(&s)) != base[i] {
				axes = append(axes, d.name)
				followers[i]++
			}
		}
		if len(axes) != 1 {
			t.Errorf("SweepSpec.%s feeds axes %v, want exactly one", fields.Field(f).Name, axes)
		}
	}
	for i, n := range followers {
		if n != 1 {
			t.Errorf("axis %s follows %d SweepSpec fields, want 1", axisTable[i].name, n)
		}
	}
}
