package telemetry

import (
	"bytes"
	"flag"
	"log/slog"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
	"time"
)

// TestIncrementsZeroAlloc pins the instrumentation contract: counting
// on the simulator's hot paths must not allocate, or the sim package's
// own AllocsPerRun gates (and the cells/sec trajectory) would regress.
func TestIncrementsZeroAlloc(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("ops_total", "ops")
	g := r.Gauge("depth", "depth")
	h := r.Histogram("lat_seconds", "latency", "", nil)
	if n := testing.AllocsPerRun(1000, func() {
		c.Inc()
		c.Add(3)
		g.Set(7)
		g.Add(-2)
		h.Observe(3 * time.Millisecond)
	}); n != 0 {
		t.Errorf("counter/gauge/histogram increments allocate %.1f per op, want 0", n)
	}
}

// sampleLine matches one Prometheus text-format sample.
var sampleLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? [0-9eE+.\-]+|^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? \+Inf$`)

// parseProm validates the exposition text line by line and returns the
// unlabeled scalar samples by name.
func parseProm(t *testing.T, text string) map[string]string {
	t.Helper()
	typed := map[string]string{}
	vals := map[string]string{}
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if strings.HasPrefix(line, "# HELP ") {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			f := strings.Fields(line)
			if len(f) != 4 {
				t.Fatalf("bad TYPE line %q", line)
			}
			typed[f[2]] = f[3]
			continue
		}
		if !sampleLine.MatchString(line) {
			t.Fatalf("line %q is not a valid Prometheus sample", line)
		}
		name := line[:strings.IndexAny(line, "{ ")]
		base := name
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if fam := strings.TrimSuffix(name, suf); fam != name && typed[fam] == "histogram" {
				base = fam
			}
		}
		if _, ok := typed[base]; !ok {
			t.Fatalf("sample %q has no preceding # TYPE", name)
		}
		if !strings.Contains(line, "{") {
			vals[name] = line[strings.LastIndex(line, " ")+1:]
		}
	}
	return vals
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("runs_total", "runs executed")
	g := r.Gauge("queue_depth", "submissions queued")
	r.CounterFunc("cells_total", "cells", func() float64 { return 42 })
	r.GaugeFunc("ratio", "hit ratio", func() float64 { return 0.5 })
	h := r.Histogram("req_seconds", "request latency",
		Label("route", `GET /v1/runs`), []time.Duration{time.Millisecond, time.Second})

	c.Add(3)
	g.Set(-2)
	h.Observe(500 * time.Microsecond)
	h.Observe(10 * time.Millisecond)
	h.Observe(2 * time.Second)

	var b bytes.Buffer
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	vals := parseProm(t, text)

	if vals["runs_total"] != "3" {
		t.Errorf("runs_total = %q, want 3", vals["runs_total"])
	}
	if vals["queue_depth"] != "-2" {
		t.Errorf("queue_depth = %q, want -2", vals["queue_depth"])
	}
	if vals["cells_total"] != "42" {
		t.Errorf("cells_total = %q, want 42", vals["cells_total"])
	}
	if vals["ratio"] != "0.5" {
		t.Errorf("ratio = %q, want 0.5", vals["ratio"])
	}
	// Histogram buckets are cumulative: le=0.001 sees 1, le=1 sees 2,
	// +Inf sees all 3.
	for _, want := range []string{
		`req_seconds_bucket{route="GET /v1/runs",le="0.001"} 1`,
		`req_seconds_bucket{route="GET /v1/runs",le="1"} 2`,
		`req_seconds_bucket{route="GET /v1/runs",le="+Inf"} 3`,
		`req_seconds_count{route="GET /v1/runs"} 3`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("output lacks %q:\n%s", want, text)
		}
	}
}

func TestLabelEscapes(t *testing.T) {
	if got, want := Label("route", "a\\b\"c\nd"), `route="a\\b\"c\nd"`; got != want {
		t.Errorf("Label = %s, want %s", got, want)
	}
}

// BenchmarkWritePrometheus renders a registry shaped like the service's
// /metrics: nine per-route latency histograms over DefBuckets beside
// a few counters and gauges.
func BenchmarkWritePrometheus(b *testing.B) {
	r := NewRegistry()
	r.Counter("runs_total", "runs executed").Add(3)
	r.Gauge("queue_depth", "submissions queued").Set(2)
	r.GaugeFunc("ratio", "hit ratio", func() float64 { return 0.5 })
	for _, route := range []string{
		"GET /healthz", "GET /v1/experiments", "POST /v1/runs", "GET /v1/runs",
		"GET /v1/runs/{key}", "GET /v1/runs/{key}/slice", "GET /v1/runs/{key}/project",
		"GET /v1/runs/{key}/events", "GET /v1/diff",
	} {
		h := r.Histogram("http_request_duration_seconds", "request latency", Label("route", route), nil)
		h.Observe(3 * time.Millisecond)
	}
	var buf bytes.Buffer
	b.ReportAllocs()
	for b.Loop() {
		buf.Reset()
		if err := r.WritePrometheus(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

func TestHandlerContentType(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", "x")
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("content type = %q, want the 0.0.4 exposition type", ct)
	}
	parseProm(t, rec.Body.String())
}

func TestDuplicateSeriesPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("dup_total", "dup")
	defer func() {
		if recover() == nil {
			t.Error("duplicate registration did not panic")
		}
	}()
	r.Counter("dup_total", "dup")
}

func TestParseLevel(t *testing.T) {
	for in, want := range map[string]slog.Level{
		"debug": slog.LevelDebug, "info": slog.LevelInfo, "": slog.LevelInfo,
		"WARN": slog.LevelWarn, "error": slog.LevelError,
	} {
		lv, err := ParseLevel(in)
		if err != nil || lv != want {
			t.Errorf("ParseLevel(%q) = %v, %v; want %v", in, lv, err, want)
		}
	}
	if _, err := ParseLevel("loud"); err == nil {
		t.Error("ParseLevel accepted a bogus level")
	}
}

func TestNewLogger(t *testing.T) {
	var b bytes.Buffer
	log, err := NewLogger(&b, "warn", false)
	if err != nil {
		t.Fatal(err)
	}
	log.Info("hidden")
	log.Warn("shown", "run", "abc")
	out := b.String()
	if strings.Contains(out, "hidden") || !strings.Contains(out, "shown") {
		t.Errorf("level filtering wrong: %q", out)
	}

	b.Reset()
	jlog, err := NewLogger(&b, "info", true)
	if err != nil {
		t.Fatal(err)
	}
	jlog.Info("event", "req", 7)
	if !strings.Contains(b.String(), `"req":7`) {
		t.Errorf("JSON handler output: %q", b.String())
	}
}

// TestBindLogFlags: the flags default to info-level text, and the
// returned constructor follows what was parsed, refusing a bad level.
func TestBindLogFlags(t *testing.T) {
	fs := flag.NewFlagSet("cmd", flag.ContinueOnError)
	newLog := BindLogFlags(fs)
	if lv, js := fs.Lookup("log-level").DefValue, fs.Lookup("log-json").DefValue; lv != "info" || js != "false" {
		t.Errorf("defaults -log-level %q -log-json %q, want info and false", lv, js)
	}
	if err := fs.Parse([]string{"-log-level", "warn", "-log-json"}); err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	log, err := newLog(&b)
	if err != nil {
		t.Fatal(err)
	}
	log.Info("hidden")
	log.Warn("shown", "req", 7)
	if out := b.String(); strings.Contains(out, "hidden") || !strings.Contains(out, `"req":7`) {
		t.Errorf("logger from -log-level warn -log-json wrote %q", out)
	}
	if err := fs.Parse([]string{"-log-level", "loud"}); err != nil {
		t.Fatal(err)
	}
	if _, err := newLog(&b); err == nil {
		t.Error("-log-level loud built a logger")
	}
}
