package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// tracer records spans around this harness's calls into each layer: a
// round or client loop, and inside it Experiment.Run, RunSweep, one HTTP
// request, one results call, fleet.New or fleet.Work. Spans stay in
// memory until the run ends. A nil tracer records nothing, which is how
// untraced runs measure without it.
type tracer struct {
	workload string
	origin   time.Time

	mu    sync.Mutex
	spans []span
}

// span is one recorded interval. Start and End are seconds since the
// tracer's origin; Parent is 0 for a root span.
type span struct {
	ID       int     `json:"id"`
	Parent   int     `json:"parent"`
	Name     string  `json:"name"`
	Workload string  `json:"workload"`
	Start    float64 `json:"start_s"`
	End      float64 `json:"end_s"`
	Self     float64 `json:"self_s"`
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, origin: time.Now()}
}

// begin opens a span under parent (0 for a root) and returns its id, to
// be passed to end. A nil tracer returns 0.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.origin).Seconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name,
		Workload: t.workload, Start: now, End: -1})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.origin).Seconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// finished returns the closed spans with their self time filled in.
func (t *tracer) finished() []span {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	var out []span
	for _, s := range spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return withSelfTime(out)
}

// withSelfTime sets each span's self time: its duration minus the part
// of its interval that its child spans cover. Children may overlap each
// other (two fleet workers under one round), so coverage is the length
// of the union of the children's intervals clipped to the parent.
func withSelfTime(spans []span) []span {
	children := map[int][][2]float64{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]float64{s.Start, s.End})
		}
	}
	for i, s := range spans {
		iv := children[s.ID]
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		covered, reach := 0.0, s.Start
		for _, c := range iv {
			lo, hi := max(c[0], reach), min(c[1], s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		spans[i].Self = s.End - s.Start - covered
	}
	return spans
}

// writeJSON writes v as indented JSON to path.
func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// profSample is one stack of a CPU profile: its weight in seconds and
// its frames, leaf first.
type profSample struct {
	Seconds float64
	Frames  []string
}

// pprofTraces runs `go tool pprof -traces` on a CPU profile and parses
// its output. The pprof tool ships with the Go toolchain.
func pprofTraces(profile string) ([]profSample, error) {
	cmd := exec.Command("go", "tool", "pprof", "-traces", profile)
	cmd.Stderr = io.Discard
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof -traces %s: %w", profile, err)
	}
	return parseTraces(strings.NewReader(string(out)))
}

// parseTraces parses the text of `go tool pprof -traces`: a header, then
// one block per stack, each opened by a dashed separator line. A block's
// first line carries the sample weight ("30ms", "1.20s") before the leaf
// frame; the following lines hold the callers, one per line.
func parseTraces(r io.Reader) ([]profSample, error) {
	var out []profSample
	var cur *profSample
	first := false // the next line opens a block
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			out = append(out, profSample{})
			cur, first = &out[len(out)-1], true
			continue
		}
		fields := strings.Fields(line)
		if cur == nil || len(fields) == 0 {
			continue // header
		}
		if first {
			d, err := parseWeight(fields[0])
			if err != nil {
				return nil, fmt.Errorf("pprof traces: %q: %w", line, err)
			}
			cur.Seconds, first = d, false
			fields = fields[1:]
		}
		if len(fields) > 0 { // the function name; "(inline)" may follow
			cur.Frames = append(cur.Frames, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// parseWeight parses a pprof sample weight such as "10ms", "1.50s" or
// "1.05mins" into seconds. A suffix may end another ("mins" ends in
// "ns" and "s"), so the longer suffixes are tried first.
func parseWeight(s string) (float64, error) {
	units := []struct {
		suffix string
		scale  float64
	}{{"mins", 60}, {"hrs", 3600}, {"ms", 1e-3}, {"us", 1e-6}, {"µs", 1e-6}, {"ns", 1e-9}, {"s", 1}}
	for _, u := range units {
		if num, ok := strings.CutSuffix(s, u.suffix); ok {
			v, err := strconv.ParseFloat(num, 64)
			if err != nil {
				return 0, err
			}
			return v * u.scale, nil
		}
	}
	return 0, fmt.Errorf("unknown weight unit in %q", s)
}

// layerOf attributes a stack to a share layer by its leaf-most lockin
// frame: the package of the first lockin/internal/<pkg> frame from the
// leaf, or "bench" for this harness's own (main package) frames. Runtime
// frames on top of a simulator frame — goroutine handoff, scheduling —
// are charged to that frame's package. A stack with no lockin frame at
// all is "runtime".
func layerOf(frames []string) string {
	for _, f := range frames {
		if rest, ok := strings.CutPrefix(f, "lockin/internal/"); ok {
			pkg, _, _ := strings.Cut(rest, ".")
			for _, l := range shareLayers {
				if l == pkg {
					return l
				}
			}
			return "other"
		}
		if strings.HasPrefix(f, "main.") {
			return "bench"
		}
	}
	return "runtime"
}

// layerShares returns each share layer's fraction of the profile's
// sampled CPU time. Every layer is present; the shares sum to 1 unless
// the profile holds no samples.
func layerShares(samples []profSample) map[string]float64 {
	out := make(map[string]float64, len(shareLayers))
	for _, l := range shareLayers {
		out[l] = 0
	}
	total := 0.0
	for _, s := range samples {
		out[layerOf(s.Frames)] += s.Seconds
		total += s.Seconds
	}
	if total > 0 {
		for l := range out {
			out[l] /= total
		}
	}
	return out
}
