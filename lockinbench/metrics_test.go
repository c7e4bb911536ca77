package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// benchmarkFile is the part of BENCHMARK.json that declares what the
// benchmark reports.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

func declaredFile() benchmarkFile {
	var f benchmarkFile
	for _, w := range workloads {
		f.Workloads = append(f.Workloads, struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		}{w.name, w.why})
	}
	f.EndToEnd, f.PerLayer = endToEnd, perLayer
	return f
}

// TestBenchmarkJSONMatchesDeclarations keeps BENCHMARK.json and the
// harness in step: the same workloads, and the same metrics with the
// same units, directions and bounds, in both directions.
func TestBenchmarkJSONMatchesDeclarations(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var got benchmarkFile
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	want := declaredFile()
	if !reflect.DeepEqual(got, want) {
		exp, _ := json.MarshalIndent(want, "", "  ")
		t.Errorf("BENCHMARK.json does not match the harness's declarations; the harness declares:\n%s", exp)
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, set := range [][]metricDecl{endToEnd, perLayer} {
		for _, d := range set {
			if !nameRE.MatchString(d.Name) || !unitRE.MatchString(d.Unit) {
				t.Errorf("metric %q unit %q: bad name or unit", d.Name, d.Unit)
			}
			if d.Better != lower && d.Better != higher {
				t.Errorf("metric %q: better %q", d.Name, d.Better)
			}
			if seen[d.Name] {
				t.Errorf("metric %q declared twice", d.Name)
			}
			seen[d.Name] = true
		}
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("end-to-end metric %q: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	if len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, at most 128", len(perLayer))
	}
	for _, w := range workloads {
		if !nameRE.MatchString(w.name) || len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %q: bad name or reason", w.name)
		}
	}
}

// TestRenderEmitsExactlyTheDeclaredSet checks that a run prints every
// declared metric of its kind and nothing else.
func TestRenderEmitsExactlyTheDeclaredSet(t *testing.T) {
	for _, decls := range [][]metricDecl{endToEnd, perLayer} {
		got := render(decls, map[string]float64{})
		if len(got) != len(decls) {
			t.Errorf("rendered %d metrics, declared %d", len(got), len(decls))
		}
		for _, d := range decls {
			if got[d.Name].Unit != d.Unit {
				t.Errorf("%s rendered with unit %q, declared %q", d.Name, got[d.Name].Unit, d.Unit)
			}
		}
	}
}
