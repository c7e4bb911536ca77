package opts_test

import (
	"flag"
	"io"
	"math"
	"net/url"
	"reflect"
	"strings"
	"testing"

	"lockin/internal/bench/opts"
	"lockin/internal/experiments"
	"lockin/internal/results"
)

// TestParseSlice exercises the -slice / slice parameter syntax the
// binary previously parsed inline.
func TestParseSlice(t *testing.T) {
	cases := []struct {
		in   string
		want []results.Fix
		err  string
	}{
		{in: "", want: nil},
		{in: "read=90", want: []results.Fix{{Axis: "read", Value: "90"}}},
		{in: "read=90, lock=MUTEX", want: []results.Fix{{Axis: "read", Value: "90"}, {Axis: "lock", Value: "MUTEX"}}},
		{in: "read", err: "bad slice"},
		{in: "=90", err: "bad slice"},
		{in: "read=", err: "bad slice"},
		{in: "read=90,,", err: "bad slice"},
	}
	for _, c := range cases {
		got, err := opts.ParseSlice(c.in)
		checkParse(t, "ParseSlice", c.in, got, c.want, err, c.err)
	}
}

func TestParseProject(t *testing.T) {
	cases := []struct {
		in   string
		want []string
		err  string
	}{
		{in: "", want: nil},
		{in: "read", want: []string{"read"}},
		{in: "read, lock", want: []string{"read", "lock"}},
		{in: "read,,lock", err: "bad project"},
		{in: ",", err: "bad project"},
	}
	for _, c := range cases {
		got, err := opts.ParseProject(c.in)
		checkParse(t, "ParseProject", c.in, got, c.want, err, c.err)
	}
}

func TestParseTolCols(t *testing.T) {
	cases := []struct {
		in   string
		want map[string]float64
		err  string
	}{
		{in: "", want: nil},
		{in: "p95(Kcyc)=0.05", want: map[string]float64{"p95(Kcyc)": 0.05}},
		{in: "p95(Kcyc)=0.05, thr(Kacq/s)=0.02", want: map[string]float64{"p95(Kcyc)": 0.05, "thr(Kacq/s)": 0.02}},
		{in: "p95", err: "bad tol_cols"},
		{in: "p95=", err: "bad tolerance"},
		{in: "p95=-0.1", err: "bad tolerance"},
		{in: "p95=NaN", err: "bad tolerance"},
		{in: "p95=Inf", err: "bad tolerance"},
	}
	for _, c := range cases {
		got, err := opts.ParseTolCols(c.in)
		checkParse(t, "ParseTolCols", c.in, got, c.want, err, c.err)
	}
}

func TestParseShard(t *testing.T) {
	cases := []struct {
		in         string
		idx, count int
		err        string
	}{
		{in: ""},
		{in: "0/2", idx: 0, count: 2},
		{in: "1/2", idx: 1, count: 2},
		{in: "0/1", idx: 0, count: 1},
		{in: "2/2", err: "out of range"},
		{in: "-1/2", err: "out of range"},
		{in: "0/0", err: "out of range"},
		{in: "1", err: "want i/n"},
		{in: "a/b", err: "want i/n"},
	}
	for _, c := range cases {
		idx, count, err := opts.ParseShard(c.in)
		if c.err != "" {
			if err == nil || !strings.Contains(err.Error(), c.err) {
				t.Errorf("ParseShard(%q) err = %v, want containing %q", c.in, err, c.err)
			}
			continue
		}
		if err != nil || idx != c.idx || count != c.count {
			t.Errorf("ParseShard(%q) = (%d, %d, %v), want (%d, %d, nil)", c.in, idx, count, err, c.idx, c.count)
		}
	}
}

func TestParseBytes(t *testing.T) {
	cases := []struct {
		in   string
		want int64
		err  string
	}{
		{"", 0, ""},
		{"0", 0, ""},
		{"1048576", 1 << 20, ""},
		{"1KiB", 1 << 10, ""},
		{"512MiB", 512 << 20, ""},
		{"2GiB", 2 << 30, ""},
		{"2GB", 2e9, ""},
		{"1.5kb", 1500, ""},
		{" 64 MB ", 64e6, ""},
		{"10b", 10, ""},
		{"mb", 0, "bad byte size"},
		{"12qb", 0, "bad byte size"},
		{"-1", 0, "bad byte size"},
		{"1e3", 0, "bad byte size"},
	}
	for _, c := range cases {
		got, err := opts.ParseBytes(c.in)
		if c.err != "" {
			if err == nil || !strings.Contains(err.Error(), c.err) {
				t.Errorf("ParseBytes(%q) err = %v, want containing %q", c.in, err, c.err)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseBytes(%q): %v", c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("ParseBytes(%q) = %d, want %d", c.in, got, c.want)
		}
	}
}

// checkParse is the shared assertion of the table-driven parser tests.
func checkParse[T any](t *testing.T, fn, in string, got, want T, err error, wantErr string) {
	t.Helper()
	if wantErr != "" {
		if err == nil || !strings.Contains(err.Error(), wantErr) {
			t.Errorf("%s(%q) err = %v, want containing %q", fn, in, err, wantErr)
		}
		return
	}
	if err != nil {
		t.Errorf("%s(%q) unexpected error: %v", fn, in, err)
		return
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s(%q) = %#v, want %#v", fn, in, got, want)
	}
}

// TestFromFlagsDefaults pins the canonical defaults: parsing no
// arguments must yield exactly Defaults().
func TestFromFlagsDefaults(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	f := opts.FromFlags(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	o, err := f.Options()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(o, opts.Defaults()) {
		t.Errorf("no-arg Options() = %+v, want Defaults() = %+v", o, opts.Defaults())
	}
}

func TestFromFlagsFullSurface(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	f := opts.FromFlags(fs)
	args := []string{
		"-seed", "7", "-scale", "2.5", "-quick", "-workers", "3",
		"-shard", "1/4", "-slice", "read=90", "-project", "lock",
		"-tol", "0.01", "-tol-cols", "p95(Kcyc)=0.05",
	}
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	o, err := f.Options()
	if err != nil {
		t.Fatal(err)
	}
	// -shard i/n is the cell range [i, i+1) of total n.
	want := opts.Options{
		Options: experiments.Options{Seed: 7, Scale: 2.5, Quick: true, Workers: 3,
			RangeLo: 1, RangeHi: 2, RangeTotal: 4},
		Slice:   []results.Fix{{Axis: "read", Value: "90"}},
		Project: []string{"lock"},
		Tol:     0.01, TolCols: map[string]float64{"p95(Kcyc)": 0.05},
	}
	if !reflect.DeepEqual(o, want) {
		t.Errorf("Options() = %+v, want %+v", o, want)
	}
}

// TestFromFlagsBadComposite checks that a malformed composite flag
// surfaces from Options(), not from flag parsing (preserving the
// original exit-code split: flag syntax errors and option validation
// errors are both usage errors).
func TestFromFlagsBadComposite(t *testing.T) {
	for _, args := range [][]string{
		{"-shard", "9"},
		{"-shard", "0/2", "-cells", "1-2/2"}, // two spellings of one split
		{"-slice", "read"},
		{"-project", ","},
		{"-tol-cols", "x=-1"},
		{"-scale", "0"},
		{"-tol", "-0.5"},
	} {
		fs := flag.NewFlagSet("t", flag.ContinueOnError)
		f := opts.FromFlags(fs)
		if err := fs.Parse(args); err != nil {
			t.Fatalf("flag parse %v: %v", args, err)
		}
		if _, err := f.Options(); err == nil {
			t.Errorf("Options() after %v: want error, got nil", args)
		}
	}
}

// queryParams are the eight URL parameters of the shared schema.
var queryParams = []string{"project", "quick", "scale", "seed", "slice", "tol", "tol_cols", "workers"}

func TestApplyQuery(t *testing.T) {
	q := url.Values{
		"seed": {"7"}, "scale": {"0.5"}, "quick": {"1"}, "workers": {"2"},
		"slice": {"read=90,lock=MUTEX"}, "project": {"lock"},
		"tol": {"0.02"}, "tol_cols": {"p95(Kcyc)=0.05"},
	}
	o, err := opts.ApplyQuery(q, queryParams...)
	if err != nil {
		t.Fatal(err)
	}
	want := opts.Options{
		Options: experiments.Options{Seed: 7, Scale: 0.5, Quick: true, Workers: 2},
		Slice:   []results.Fix{{Axis: "read", Value: "90"}, {Axis: "lock", Value: "MUTEX"}},
		Project: []string{"lock"},
		Tol:     0.02, TolCols: map[string]float64{"p95(Kcyc)": 0.05},
	}
	if !reflect.DeepEqual(o, want) {
		t.Errorf("ApplyQuery = %+v, want %+v", o, want)
	}
}

func TestApplyQueryLastValueWins(t *testing.T) {
	o, err := opts.ApplyQuery(url.Values{"seed": {"1", "2", "3"}}, "seed")
	if err != nil {
		t.Fatal(err)
	}
	if o.Seed != 3 {
		t.Errorf("seed = %d, want the last value 3", o.Seed)
	}
}

func TestApplyQueryStrict(t *testing.T) {
	cases := []struct {
		q       url.Values
		allowed []string
		err     string
	}{
		{q: url.Values{"scal": {"4"}}, err: "unknown parameter"},
		{q: url.Values{"shard": {"0/2"}}, err: "unknown parameter"}, // shard is CLI-only
		{q: url.Values{"seed": {"x"}}, err: "bad seed"},
		{q: url.Values{"scale": {"zero"}}, err: "bad scale"},
		{q: url.Values{"scale": {"0"}}, err: "bad scale"},
		{q: url.Values{"scale": {"-1"}}, err: "bad scale"},
		{q: url.Values{"quick": {"maybe"}}, err: "bad quick"},
		{q: url.Values{"workers": {"1.5"}}, err: "bad workers"},
		{q: url.Values{"tol": {"NaN"}}, err: "bad tol"},
		{q: url.Values{"slice": {"read"}}, err: "bad slice"},
		// A key in the schema but outside the endpoint's allowed subset
		// is rejected, and the message names what is accepted.
		{q: url.Values{"slice": {"read=90"}}, allowed: []string{"seed", "scale"}, err: `unknown parameter "slice" (accepted: seed, scale)`},
		// No allowed names accept nothing, not everything.
		{q: url.Values{"seed": {"7"}}, allowed: []string{}, err: `unknown parameter "seed"`},
	}
	for _, c := range cases {
		if c.allowed == nil {
			c.allowed = queryParams
		}
		_, err := opts.ApplyQuery(c.q, c.allowed...)
		if err == nil || !strings.Contains(err.Error(), c.err) {
			t.Errorf("ApplyQuery(%v, allowed=%v) err = %v, want containing %q", c.q, c.allowed, err, c.err)
		}
	}
}

// TestQueryParsesAsFlags feeds one table of raw values through the
// command line (FromFlags, fs.Parse, Options) and through a URL query
// (ApplyQuery), for every URL parameter: both must give the same
// Options, or both must fail. ?seed=010 is -seed 010, which Go's flag
// package reads as octal 8.
func TestQueryParsesAsFlags(t *testing.T) {
	values := []string{
		"0", "1", "7", "010", "0x10", "1_000", "+5", "-3", "1.5", "NaN", "Inf",
		"1e-3", "99999999999999999999", "", "x", "true", "T",
		"read=90,lock=MUTEX", "read", "lock", "p95(Kcyc)=0.05", "p95=-1",
	}
	for _, k := range queryParams {
		for _, v := range values {
			fs := flag.NewFlagSet("t", flag.ContinueOnError)
			fs.SetOutput(io.Discard)
			f := opts.FromFlags(fs)
			err := fs.Parse([]string{"-" + strings.ReplaceAll(k, "_", "-") + "=" + v})
			var cli opts.Options
			if err == nil {
				cli, err = f.Options()
			}
			query, qerr := opts.ApplyQuery(url.Values{k: {v}}, k)
			switch {
			case (err == nil) != (qerr == nil):
				t.Errorf("%s=%q: flag err %v, query err %v", k, v, err, qerr)
			case err == nil && !reflect.DeepEqual(cli, query):
				t.Errorf("%s=%q: flag gives %+v, query gives %+v", k, v, cli, query)
			}
		}
	}
}

func TestNormalizeAndValidate(t *testing.T) {
	o := opts.Defaults()
	o.Workers = -5
	if err := o.NormalizeAndValidate(); err != nil {
		t.Fatal(err)
	}
	if o.Workers != 0 {
		t.Errorf("negative workers: normalized to %d, want 0", o.Workers)
	}

	bad := []func(*opts.Options){
		func(o *opts.Options) { o.Scale = 0 },
		func(o *opts.Options) { o.Scale = -2 },
		func(o *opts.Options) { o.Scale = 1e14 }, // overflows a window
		func(o *opts.Options) { o.Scale = math.Inf(1) },
		func(o *opts.Options) { o.Tol = -0.1 },
		func(o *opts.Options) { o.RangeLo, o.RangeHi, o.RangeTotal = 3, 2, 4 },
		func(o *opts.Options) { o.RangeLo, o.RangeHi, o.RangeTotal = -1, 1, 2 },
		func(o *opts.Options) { o.RangeLo, o.RangeHi, o.RangeTotal = 0, 3, 2 },
	}
	for i, mutate := range bad {
		o := opts.Defaults()
		mutate(&o)
		if err := o.NormalizeAndValidate(); err == nil {
			t.Errorf("bad case %d: want error, got nil (%+v)", i, o)
		}
	}
}

// TestQueryKeysSchema pins the flag ↔ query-parameter schema the
// README documents: every shared execution/query knob is reachable from
// a URL, and nothing else is, the profile flags included.
func TestQueryKeysSchema(t *testing.T) {
	for _, k := range queryParams {
		if _, err := opts.ApplyQuery(url.Values{k: {"1"}}, k); err != nil && strings.Contains(err.Error(), "unknown parameter") {
			t.Errorf("parameter %q is not in the schema: %v", k, err)
		}
	}
	for _, k := range []string{"cpuprofile", "memprofile", "shard", "cells"} {
		if _, err := opts.ApplyQuery(url.Values{k: {"x"}}, k); err == nil || !strings.Contains(err.Error(), "unknown parameter") {
			t.Errorf("parameter %q: err = %v, want unknown parameter", k, err)
		}
	}
}
