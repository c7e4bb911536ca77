package scenario

import (
	"encoding/json"
	"strings"
	"testing"
)

// validSpec is a minimal correct spec the error cases below mutate.
const validSpec = `{
  "name": "t",
  "locks": [{"name": "l", "topology": "single"}],
  "groups": [{"name": "g", "threads": 2, "ops": [{"lock": "l", "cs_cycles": 100}]}]
}`

func TestParseValid(t *testing.T) {
	s, err := Parse([]byte(validSpec))
	if err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	if s.Name != "t" || len(s.Locks) != 1 || len(s.Groups) != 1 {
		t.Fatalf("parsed spec mangled: %+v", s)
	}
	if h := s.Hash(); len(h) != 12 {
		t.Fatalf("hash %q: want 12 hex digits", h)
	}
}

func TestHashTracksSemanticsNotFormatting(t *testing.T) {
	a, err := Parse([]byte(validSpec))
	if err != nil {
		t.Fatal(err)
	}
	// Reformatted but semantically identical.
	b, err := Parse([]byte(strings.ReplaceAll(validSpec, "\n", " ")))
	if err != nil {
		t.Fatal(err)
	}
	if a.Hash() != b.Hash() {
		t.Fatalf("formatting-only change moved the hash: %s vs %s", a.Hash(), b.Hash())
	}
	c, err := Parse([]byte(strings.ReplaceAll(validSpec, `"cs_cycles": 100`, `"cs_cycles": 200`)))
	if err != nil {
		t.Fatal(err)
	}
	if a.Hash() == c.Hash() {
		t.Fatalf("semantic change kept the hash %s", a.Hash())
	}
	// Doc-only edits must not invalidate stored baselines.
	d, err := Parse([]byte(`{"title": "T", "description": "D", ` + validSpec[1:]))
	if err != nil {
		t.Fatal(err)
	}
	if a.Hash() != d.Hash() {
		t.Fatalf("doc-only change moved the hash: %s vs %s", a.Hash(), d.Hash())
	}
}

// TestColumnsAbsentFromCanonicalJSON guards the hash-stability
// contract for pre-axis specs: a spec that declares no columns must
// re-marshal without a "columns" key, so its content hash — and every
// stored baseline pinned to it — is unchanged by the field's addition
// to the schema.
func TestColumnsAbsentFromCanonicalJSON(t *testing.T) {
	s, err := Parse([]byte(validSpec))
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(b), "columns") {
		t.Fatalf("columns-less spec marshals a columns key, moving every legacy hash: %s", b)
	}
	withCols := strings.ReplaceAll(validSpec, `"name": "t",`,
		`"name": "t", "columns": {"percentiles": [95]},`)
	c, err := Parse([]byte(withCols))
	if err != nil {
		t.Fatal(err)
	}
	if s.Hash() == c.Hash() {
		t.Fatal("adding columns kept the hash, but the stored table shape changed")
	}
}

// TestLegacyGroupNamesStillParse: group-name charset rules only bind
// when per_group columns turn names into addressable headers; old
// specs with arbitrary names must keep validating.
func TestLegacyGroupNamesStillParse(t *testing.T) {
	spec := strings.ReplaceAll(validSpec, `"name": "g"`, `"name": "Readers (hot)"`)
	if _, err := Parse([]byte(spec)); err != nil {
		t.Fatalf("pre-axis group name rejected without per_group columns: %v", err)
	}
}

// withSweep splices a sweep clause into a spec document just before
// its closing brace.
func withSweep(spec, sweep string) string {
	i := strings.LastIndex(spec, "}")
	return spec[:i] + `, "sweep": ` + sweep + "}"
}

func TestValidationErrors(t *testing.T) {
	cases := []struct {
		name string
		json string
		want string // substring of the error
	}{
		{"not json", `lock it all`, "parse spec"},
		{"trailing garbage", validSpec + ` {"x": 1}`, "trailing data"},
		{"unknown field", `{"name": "t", "warp_cycles": 3}`, "unknown field"},
		{"missing name", `{"locks": [{"name": "l", "topology": "single"}]}`, "needs a name"},
		{"bad name", strings.ReplaceAll(validSpec, `"name": "t"`, `"name": "T T"`), "name must match"},
		{"unknown machine", strings.ReplaceAll(validSpec, `"name": "t",`, `"name": "t", "machine": {"topology": "sparc"},`), "unknown machine topology"},
		{"no locks", `{"name": "t", "groups": [{"threads": 1, "ops": [{"compute_cycles": 5}]}]}`, "at least one lock"},
		{"unknown lock topology",
			strings.ReplaceAll(validSpec, `"topology": "single"`, `"topology": "elevator"`),
			`unknown topology "elevator"`},
		{"duplicate lock",
			strings.ReplaceAll(validSpec, `{"name": "l", "topology": "single"}`,
				`{"name": "l", "topology": "single"}, {"name": "l", "topology": "single"}`),
			"duplicate lock"},
		{"stripes on single",
			strings.ReplaceAll(validSpec, `"topology": "single"`, `"topology": "single", "stripes": 4`),
			"stripes only applies"},
		{"one stripe",
			strings.ReplaceAll(validSpec, `"topology": "single"`, `"topology": "striped", "stripes": 1`),
			"at least 2 stripes"},
		{"unknown pinned kind",
			strings.ReplaceAll(validSpec, `"topology": "single"`, `"topology": "single", "kind": "BIGLOCK"`),
			"unknown lock kind"},
		{"no groups", `{"name": "t", "locks": [{"name": "l", "topology": "single"}], "groups": []}`, "at least one group"},
		{"zero threads", strings.ReplaceAll(validSpec, `"threads": 2`, `"threads": 0`), "zero threads"},
		{"negative threads", strings.ReplaceAll(validSpec, `"threads": 2`, `"threads": -3`), "negative thread count"},
		{"ops and choices",
			strings.ReplaceAll(validSpec, `"ops": [{"lock": "l", "cs_cycles": 100}]`,
				`"ops": [{"lock": "l", "cs_cycles": 100}], "choices": [{"weight": 1, "ops": [{"lock": "l", "cs_cycles": 100}]}]`),
			"not both"},
		{"empty body", strings.ReplaceAll(validSpec, `"ops": [{"lock": "l", "cs_cycles": 100}]`, `"ops": []`), "needs ops or choices"},
		{"zero-weight choice",
			strings.ReplaceAll(validSpec, `"ops": [{"lock": "l", "cs_cycles": 100}]`,
				`"choices": [{"weight": 0, "ops": [{"lock": "l", "cs_cycles": 100}]}]`),
			"positive weight"},
		{"undeclared lock", strings.ReplaceAll(validSpec, `{"lock": "l",`, `{"lock": "m",`), `undeclared lock "m"`},
		{"read on single lock",
			strings.ReplaceAll(validSpec, `"cs_cycles": 100`, `"cs_cycles": 100, "mode": "read"`),
			"read mode needs an rw lock"},
		{"unknown mode",
			strings.ReplaceAll(validSpec, `"cs_cycles": 100`, `"cs_cycles": 100, "mode": "shared"`),
			"unknown mode"},
		{"negative cs", strings.ReplaceAll(validSpec, `"cs_cycles": 100`, `"cs_cycles": -1`), "negative cs_cycles"},
		{"negative every", strings.ReplaceAll(validSpec, `"cs_cycles": 100`, `"cs_cycles": 100, "every": -2`), "negative every"},
		{"cs without axis", strings.ReplaceAll(validSpec, `"cs_cycles": 100`, `"cs_cycles": 0`), "needs cs_cycles"},
		{"op with two kinds",
			strings.ReplaceAll(validSpec, `"cs_cycles": 100`, `"cs_cycles": 100, "compute_cycles": 5`),
			"exactly one of"},
		{"block_every without cycles",
			strings.ReplaceAll(validSpec, `"threads": 2,`, `"threads": 2, "block_every": 5,`),
			"go together"},
		{"overlapping threads axis",
			withSweep(strings.ReplaceAll(validSpec, `"threads": 2`, `"threads": 0`), `{"threads": [4, 4]}`),
			"overlapping values"},
		{"overlapping cs axis",
			withSweep(strings.ReplaceAll(validSpec, `"cs_cycles": 100`, `"cs_cycles": 0`), `{"cs": [800, 800]}`),
			"overlapping values"},
		{"overlapping locks axis",
			withSweep(validSpec, `{"locks": ["MUTEX", "MUTEX"]}`),
			"overlapping values"},
		{"unknown axis kind",
			withSweep(validSpec, `{"locks": ["BIGLOCK"]}`),
			"unknown lock kind"},
		{"threads axis unused",
			withSweep(validSpec, `{"threads": [2, 4]}`),
			"sweep.threads axis has no effect"},
		{"cs axis unused",
			withSweep(validSpec, `{"cs": [100, 200]}`),
			"sweep.cs axis has no effect"},
		{"locks axis over pinned kinds",
			withSweep(strings.ReplaceAll(validSpec, `"topology": "single"`, `"topology": "single", "kind": "TICKET"`),
				`{"locks": ["MUTEX", "MUTEXEE"]}`),
			"overlaps the pinned lock kinds"},
		{"weight_axis without read axis",
			strings.ReplaceAll(validSpec, `"ops": [{"lock": "l", "cs_cycles": 100}]`,
				`"choices": [{"weight_axis": "read", "ops": [{"lock": "l", "cs_cycles": 100}]}]`),
			"weight_axis needs a sweep.read axis"},
		{"unknown weight_axis",
			withSweep(strings.ReplaceAll(validSpec, `"ops": [{"lock": "l", "cs_cycles": 100}]`,
				`"choices": [{"weight_axis": "write", "ops": [{"lock": "l", "cs_cycles": 100}]}]`),
				`{"read": [50]}`),
			"unknown weight_axis"},
		{"weight and weight_axis",
			withSweep(strings.ReplaceAll(validSpec, `"ops": [{"lock": "l", "cs_cycles": 100}]`,
				`"choices": [{"weight": 3, "weight_axis": "read", "ops": [{"lock": "l", "cs_cycles": 100}]}]`),
				`{"read": [50]}`),
			"not both"},
		{"read axis unused",
			withSweep(validSpec, `{"read": [10, 90]}`),
			"sweep.read axis has no effect"},
		{"read out of range",
			withSweep(strings.ReplaceAll(validSpec, `"ops": [{"lock": "l", "cs_cycles": 100}]`,
				`"choices": [{"weight_axis": "read", "ops": [{"lock": "l", "cs_cycles": 100}]}]`),
				`{"read": [150]}`),
			"read ratio 150 out of range"},
		{"overlapping read axis",
			withSweep(strings.ReplaceAll(validSpec, `"ops": [{"lock": "l", "cs_cycles": 100}]`,
				`"choices": [{"weight_axis": "read", "ops": [{"lock": "l", "cs_cycles": 100}]}]`),
				`{"read": [50, 50]}`),
			"overlapping values"},
		{"zero total weight",
			withSweep(strings.ReplaceAll(validSpec, `"ops": [{"lock": "l", "cs_cycles": 100}]`,
				`"choices": [{"weight_axis": "read", "ops": [{"lock": "l", "cs_cycles": 100}]}]`),
				`{"read": [0, 50]}`),
			"non-positive total weight"},
		{"oversub group without axis",
			strings.ReplaceAll(validSpec, `"threads": 2`, `"threads": 0, "oversub": true`),
			"needs a sweep.oversub axis"},
		{"oversub group with pinned threads",
			withSweep(strings.ReplaceAll(validSpec, `"threads": 2`, `"threads": 2, "oversub": true`),
				`{"oversub": [2]}`),
			"drop threads"},
		{"oversub axis unused",
			withSweep(validSpec, `{"oversub": [1, 2]}`),
			"sweep.oversub axis has no effect"},
		{"non-positive oversub factor",
			withSweep(strings.ReplaceAll(validSpec, `"threads": 2`, `"threads": 0, "oversub": true`),
				`{"oversub": [0]}`),
			"must be positive"},
		{"oversub factor too large",
			withSweep(strings.ReplaceAll(validSpec, `"threads": 2`, `"threads": 0, "oversub": true`),
				`{"oversub": [1000]}`),
			"out of range"},
		{"oversub factors round to same thread count",
			withSweep(strings.ReplaceAll(validSpec, `"threads": 2`, `"threads": 0, "oversub": true`),
				`{"oversub": [0.1, 0.11]}`),
			"both resolve to 4 threads"},
		{"pick on single lock",
			strings.ReplaceAll(validSpec, `"topology": "single"`, `"topology": "single", "pick": "zipf", "skew": 1`),
			"pick only applies to the striped topology"},
		{"unknown pick",
			strings.ReplaceAll(validSpec, `"topology": "single"`, `"topology": "striped", "pick": "hottest"`),
			"unknown pick"},
		{"skew without zipf",
			strings.ReplaceAll(validSpec, `"topology": "single"`, `"topology": "striped", "skew": 1`),
			"skew only applies to zipf-picked locks"},
		{"zipf without skew",
			strings.ReplaceAll(validSpec, `"topology": "single"`, `"topology": "striped", "pick": "zipf"`),
			"zipf pick needs a skew"},
		{"negative pinned skew",
			strings.ReplaceAll(validSpec, `"topology": "single"`, `"topology": "striped", "pick": "zipf", "skew": -1`),
			"negative skew"},
		{"skew axis unused",
			withSweep(strings.ReplaceAll(validSpec, `"topology": "single"`, `"topology": "striped", "pick": "zipf", "skew": 1`),
				`{"skew": [0, 1]}`),
			"sweep.skew axis has no effect"},
		{"negative skew axis value",
			withSweep(strings.ReplaceAll(validSpec, `"topology": "single"`, `"topology": "striped", "pick": "zipf"`),
				`{"skew": [-0.5]}`),
			"non-negative"},
		{"warmup overflows a scaled window",
			strings.ReplaceAll(validSpec, `"name": "t",`, `"name": "t", "warmup_cycles": 1000000000001,`),
			"at most 1e+12"},
		{"duration overflows a scaled window",
			strings.ReplaceAll(validSpec, `"name": "t",`, `"name": "t", "duration_cycles": 9223372036854775807,`),
			"at most 1e+12"},
		{"percentile out of range",
			strings.ReplaceAll(validSpec, `"name": "t",`, `"name": "t", "columns": {"percentiles": [100]},`),
			"out of range (0, 100)"},
		{"percentile collides with built-in p99",
			strings.ReplaceAll(validSpec, `"name": "t",`, `"name": "t", "columns": {"percentiles": [99]},`),
			"collides with the built-in p99"},
		{"unsafe group name under per_group columns",
			strings.ReplaceAll(strings.ReplaceAll(validSpec, `"name": "g"`, `"name": "a=b"`),
				`"name": "t",`, `"name": "t", "columns": {"per_group": true},`),
			"group name"},
		{"duplicate percentile",
			strings.ReplaceAll(validSpec, `"name": "t",`, `"name": "t", "columns": {"percentiles": [95, 95]},`),
			"appears twice"},
		{"duplicate per-group column",
			strings.ReplaceAll(validSpec, `"groups": [{"name": "g", "threads": 2, "ops": [{"lock": "l", "cs_cycles": 100}]}]`,
				`"columns": {"per_group": true}, "groups": [{"name": "g", "threads": 2, "ops": [{"lock": "l", "cs_cycles": 100}]}, {"name": "g", "threads": 1, "ops": [{"lock": "l", "cs_cycles": 100}]}]`),
			"duplicate group column"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse([]byte(tc.json))
			if err == nil {
				t.Fatalf("spec accepted, want error containing %q\nspec: %s", tc.want, tc.json)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not contain %q", err, tc.want)
			}
		})
	}
}

// FuzzParse asserts the compiler front end never panics: arbitrary
// bytes either parse (and then must compile and hash cleanly) or
// return an error.
func FuzzParse(f *testing.F) {
	f.Add([]byte(validSpec))
	f.Add([]byte(`{`))
	f.Add([]byte(`[1, 2]`))
	f.Add([]byte(`{"name": "x", "locks": null, "groups": 3}`))
	f.Add([]byte(`{"name": "x", "sweep": {"threads": [-1]}}`))
	if cs, err := Bundled(); err == nil {
		for _, c := range cs {
			if raw, err := BundledSpec(c.Spec.Name + ".json"); err == nil {
				f.Add(raw)
			}
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Parse(data)
		if err != nil {
			return
		}
		c, err := Compile(s)
		if err != nil {
			t.Fatalf("spec passed Parse but failed Compile: %v", err)
		}
		if c.Hash == "" || c.ID() == "scenario:" {
			t.Fatalf("compiled spec missing hash or id")
		}
	})
}
