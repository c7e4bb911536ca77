package main

import (
	"bufio"
	"bytes"
	"embed"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"strings"
	"sync"
	"time"

	"lockin/internal/bench/opts"
	"lockin/internal/experiments"
	"lockin/internal/metrics"
	"lockin/internal/results"
	"lockin/internal/scenario"
	"lockin/internal/serve"
	"lockin/internal/sweep"
)

// Frozen copies of the scenario specs the service and fleet workloads
// submit, so edits to the repository's own copies cannot move the
// benchmark.
//
//go:embed testdata/*.json
var inputs embed.FS

func input(name string) []byte {
	b, err := inputs.ReadFile("testdata/" + name)
	if err != nil {
		panic(err) // embedded at build time
	}
	return b
}

const (
	serveScale   = 0.25 // window multiplier of every run the service simulates
	prefillRuns  = 8    // hamsterdb runs cached before the timed phase
	serveClients = 2
	// rerunEvery is how often an uncached run is re-simulated locally
	// after the timed phase and compared with what the service stored.
	rerunEvery = 10
	// rssOps is the operation count after which the run reads its peak
	// RSS. Peak RSS grows with the operations a run completes, by about
	// 0.7 MiB per 4000, so a reading at the end would grow with the
	// host's speed.
	rssOps = 2500
)

// sliceFix and projectAxes are the queries the mix sends.
var (
	sliceFix    = []results.Fix{{Axis: "read", Value: "90"}}
	projectAxes = []string{"lock"}
)

// prefilled is one cached run and the exact answers the service must
// give about it, computed locally from its stored bytes.
type prefilled struct {
	seed    int64
	key     string
	raw     []byte
	run     *results.Run
	slice   []byte
	project []byte
	diff    diffAnswer // against the next prefilled run
}

// diffAnswer is the part of a /v1/diff answer that depends on the runs.
type diffAnswer struct {
	Equal       bool   `json:"equal"`
	Differences int    `json:"differences"`
	Report      string `json:"report"`
}

// serveBench is the serve-mixed workload: the service in process behind
// httptest, prefilled with cached runs.
type serveBench struct {
	c       *config
	dir     string
	srv     *serve.Server
	ts      *httptest.Server
	hc      *http.Client
	ham     []byte
	prefill []prefilled
	digests []output // the prefilled answers' digests, checked once after the timed phase
	reruns  []submitted
}

// submitted is an uncached run the mix submitted, kept for the local
// re-run check.
type submitted struct {
	exp  experiments.Experiment
	seed int64
	run  *results.Run
}

func setupServeMixed(c *config, m *measurement) (instance, error) {
	if err := os.MkdirAll(c.scratch, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(c.scratch, "serve-")
	if err != nil {
		return nil, err
	}
	srv, err := serve.New(serve.Config{CacheDir: dir, Pool: 2})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	b := &serveBench{c: c, dir: dir, srv: srv, ts: httptest.NewServer(srv.Handler()), ham: input("hamsterdb.json")}
	b.hc = b.ts.Client()
	b.hc.Timeout = time.Minute
	if err := b.fill(); err != nil {
		b.close()
		return nil, err
	}
	return b, nil
}

// fill submits the prefill runs, waits for them and derives the answers
// every later query must reproduce.
func (b *serveBench) fill() error {
	b.prefill = make([]prefilled, prefillRuns)
	for i := range b.prefill {
		p := &b.prefill[i]
		p.seed = subSeed(b.c.seed, 1000+i)
		key, code, err := b.submit(b.ham, "", p.seed)
		if err != nil {
			return err
		}
		if code != http.StatusAccepted {
			return fmt.Errorf("prefill %d: POST answered %d, want 202", i, code)
		}
		p.key = key
	}
	for i := range b.prefill {
		p := &b.prefill[i]
		if _, _, err := b.awaitDone(p.key); err != nil {
			return err
		}
		raw, code, err := b.get("/v1/runs/" + p.key)
		if err != nil || code != http.StatusOK {
			return fmt.Errorf("prefill %d: fetch: %d %v", i, code, err)
		}
		run, err := results.Decode(raw)
		if err != nil {
			return err
		}
		p.raw, p.run = raw, run
		sliced, err := results.Slice(run, sliceFix)
		if err != nil {
			return err
		}
		projected, err := results.Project(run, projectAxes)
		if err != nil {
			return err
		}
		if p.slice, err = results.Encode(sliced); err != nil {
			return err
		}
		if p.project, err = results.Encode(projected); err != nil {
			return err
		}
		name := fmt.Sprintf("prefill-%d/", i)
		b.digests = append(b.digests,
			output{name: name + "run", digest: digest(renderTables(run.Tables))},
			output{name: name + "slice", digest: digest(renderTables(sliced.Tables))},
			output{name: name + "project", digest: digest(renderTables(projected.Tables))})
	}
	for i := range b.prefill {
		rep, err := localDiff(b.prefill[i].run, b.prefill[(i+1)%prefillRuns].run)
		if err != nil {
			return err
		}
		b.prefill[i].diff = diffAnswer{Equal: rep.Empty(), Differences: rep.NumDiffs(), Report: rep.String()}
		b.digests = append(b.digests, output{name: fmt.Sprintf("prefill-%d/diff", i), digest: digest(rep.String())})
	}
	return nil
}

// localDiff is the diff the service answers for ?a=base&b=cur&slice=…:
// both runs pushed through the same query, then compared plane by plane.
func localDiff(base, cur *results.Run) (*results.Report, error) {
	q := opts.Query{Fixes: sliceFix}
	cur, err := q.Apply(cur)
	if err != nil {
		return nil, err
	}
	if base, err = q.ApplyToBaseline(base); err != nil {
		return nil, err
	}
	return results.ComparePlanes(base, cur, results.Tolerance{})
}

// renderTables is the text of tables as the CLI prints them.
func renderTables(tabs []*metrics.Table) string {
	var s strings.Builder
	for _, t := range tabs {
		s.WriteString(t.String())
	}
	return s.String()
}

// subSeed derives the seed of one generated input from the run's seed.
func subSeed(seed int64, index int) int64 {
	return sweep.CellSeed(seed, index) & math.MaxInt64
}

// submit POSTs a run: a scenario spec body, or a registered experiment
// id. It returns the run's cache key and the HTTP status.
func (b *serveBench) submit(spec []byte, id string, seed int64) (string, int, error) {
	q := url.Values{"seed": {fmt.Sprint(seed)}, "scale": {fmt.Sprint(serveScale * b.c.size)}, "quick": {"true"}}
	if id != "" {
		q.Set("experiment", id)
	}
	resp, err := b.hc.Post(b.ts.URL+"/v1/runs?"+q.Encode(), "application/json", bytes.NewReader(spec))
	if err != nil {
		return "", 0, err
	}
	defer resp.Body.Close()
	var ans struct {
		Key    string `json:"key"`
		Status string `json:"status"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ans); err != nil {
		return "", resp.StatusCode, fmt.Errorf("submit: %d: %w", resp.StatusCode, err)
	}
	return ans.Key, resp.StatusCode, nil
}

// awaitDone follows a run's event stream to its end and returns when it
// first reported "running" (zero if it never did) and when it was done.
func (b *serveBench) awaitDone(key string) (running, done time.Time, err error) {
	resp, err := b.hc.Get(b.ts.URL + "/v1/runs/" + key + "/events")
	if err != nil {
		return running, done, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		var ev serve.Event
		if err := json.Unmarshal([]byte(data), &ev); err != nil {
			return running, done, err
		}
		switch ev.Status {
		case "running":
			if running.IsZero() {
				running = time.Now()
			}
		case "done":
			return running, time.Now(), nil
		case "failed":
			return running, done, fmt.Errorf("run %s failed: %s", key, ev.Error)
		}
	}
	return running, done, fmt.Errorf("run %s: event stream ended before done: %v", key, sc.Err())
}

func (b *serveBench) get(path string) ([]byte, int, error) {
	resp, err := b.hc.Get(b.ts.URL + path)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return body, resp.StatusCode, err
}

// The mix, in percent of operations. Nothing records how the service is
// used, so these shares are an assumption: mostly reads of cached runs,
// with enough uncached submits to keep simulations running beside them.
// The end-to-end numbers weigh every kind of operation the same (see
// measure), so the shares set only how much the kinds contend for the
// CPUs, not how much each kind counts.
const (
	pctSubmit  = 10 // uncached run, fresh seed: POST, then the event stream to done
	pctHit     = 50 // re-POST of a prefilled run: a cache hit
	pctSlice   = 15 // slice read=90 of a prefilled run
	pctProject = 13 // project onto lock
	pctDiff    = 10 // diff of two prefilled runs, sliced
	pctMetrics = 2  // GET /metrics
)

// serveKinds are the kinds of operation in the mix.
var serveKinds = []string{"submit", "hit", "slice", "project", "diff", "metrics"}

// clientLog is one closed-loop client's state and what it observed.
type clientLog struct {
	rng     *rand.Rand
	submits int
	n       int // operations sent
	failed  int
	ops     map[string][]float64 // latency in ms of each operation, by kind
	steps   map[string][]float64 // ms of each step of an uncached submission: admit, queue, run, fetch
	reruns  []submitted
}

// serveSegment is about how long one segment of the timed phase lasts:
// serve-mixed's counterpart of a round. The clients keep both CPUs busy,
// so in an untraced run they pause between segments while the
// calibration loop runs.
const serveSegment = 2 * time.Second

// measure runs the clients in equal segments until the deadline. The
// headline weighs every kind of operation the same, so that it does not
// hinge on the mix's assumed shares: the throughput is the geometric
// mean over the kinds of each kind's closed-loop rate (the clients
// divided by the kind's mean latency), and the latency the geometric
// mean of each kind's median latency. Making every operation of one kind
// twice as fast moves both by 2^(1/6), about 12%, whatever its share.
func (b *serveBench) measure(c *config, deadline time.Time, m *measurement) error {
	logs := make([]clientLog, serveClients)
	for i := range logs {
		logs[i] = clientLog{rng: rand.New(rand.NewSource(subSeed(b.c.seed, 2000+i))),
			ops: map[string][]float64{}, steps: map[string][]float64{}}
	}
	sent := func() (n int) {
		for _, l := range logs {
			n += l.n
		}
		return n
	}
	phase := time.Until(deadline)
	segments := max(1, int(phase/serveSegment))
	var wall, ran time.Duration
	for k := segments - 1; k >= 0; k-- {
		m.recalibrate(c)
		end := deadline.Add(-phase * time.Duration(k) / time.Duration(segments))
		w := startWatch()
		var wg sync.WaitGroup
		for i := range logs {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				b.client(i, end, &logs[i])
			}(i)
		}
		wg.Wait()
		segWall, segRan := w.stop()
		if m.peakRSS == 0 && sent() >= rssOps {
			var err error
			if m.peakRSS, err = peakRSSMiB(); err != nil {
				return err
			}
		}
		m.addRound(segWall, segRan)
		wall, ran = wall+segWall, ran+segRan
	}

	lat := map[string][]float64{}
	for _, l := range logs {
		for k, xs := range l.ops {
			lat[k] = append(lat[k], xs...)
		}
		for k, xs := range l.steps {
			lat[k] = append(lat[k], xs...)
		}
		m.attempted += l.n
		m.failed += l.failed
		b.reruns = append(b.reruns, l.reruns...)
	}
	ranShare := ran.Seconds() / wall.Seconds() // removes the steal from each latency
	var logRate, logLatency float64
	for _, k := range serveKinds {
		xs := lat[k]
		if len(xs) == 0 {
			return fmt.Errorf("the timed phase completed no %s operation among its %d", k, sent())
		}
		var sum float64
		for _, x := range xs {
			sum += x
		}
		logRate += math.Log(serveClients * float64(len(xs)) / (sum * ranShare / 1000))
		logLatency += math.Log(median(xs) * ranShare)
	}
	m.opsPerS = math.Exp(logRate / float64(len(serveKinds)))
	m.latencyMs = math.Exp(logLatency / float64(len(serveKinds)))
	query := append(append(append([]float64(nil), lat["slice"]...), lat["project"]...), lat["diff"]...)
	for _, p := range []struct {
		name string
		xs   []float64
		q    float64
	}{
		{"serve.admit_ms", lat["admit"], 0.5}, {"serve.queue_ms", lat["queue"], 0.5},
		{"serve.run_ms", lat["run"], 0.5}, {"serve.fetch_ms", lat["fetch"], 0.5},
		{"serve.slice_ms", lat["slice"], 0.5}, {"serve.project_ms", lat["project"], 0.5},
		{"serve.diff_ms", lat["diff"], 0.5}, {"telemetry.render_ms", lat["metrics"], 0.5},
		{"serve.submit_p50_ms", lat["submit"], 0.5}, {"serve.submit_p90_ms", lat["submit"], 0.9},
		{"serve.hit_p50_ms", lat["hit"], 0.5}, {"serve.hit_p99_ms", lat["hit"], 0.99},
		{"serve.query_p50_ms", query, 0.5}, {"serve.query_p99_ms", query, 0.99},
	} {
		m.tails[p.name] = tail{p.xs, p.q}
	}
	return nil
}

// client runs one closed-loop client, picking up where its log left
// off: it sends its next operation only when the previous one has
// completed, until the deadline, and at least once.
func (b *serveBench) client(id int, deadline time.Time, l *clientLog) {
	root := b.c.tracer.begin(fmt.Sprintf("client %d", id), 0)
	defer b.c.tracer.end(root)
	for first := true; first || time.Now().Before(deadline); first = false {
		r, i := l.rng.Intn(100), l.rng.Intn(prefillRuns)
		p, next := &b.prefill[i], &b.prefill[(i+1)%prefillRuns]
		var kind string
		var ok bool
		start := time.Now()
		l.n++
		switch {
		case r < pctSubmit:
			kind = "submit"
			l.submits++
			ok = b.uncached(subSeed(b.c.seed, 1_000_000*(id+1)+l.submits), l.submits%rerunEvery == 0, root, l)
		case r < pctSubmit+pctHit:
			kind = "hit"
			sp := b.c.tracer.begin("POST /v1/runs (cached)", root)
			key, code, err := b.submit(b.ham, "", p.seed)
			b.c.tracer.end(sp)
			ok = err == nil && code == http.StatusOK && key == p.key
		case r < pctSubmit+pctHit+pctSlice:
			kind = "slice"
			ok = b.query(root, "/v1/runs/"+p.key+"/slice?read=90", p.slice)
		case r < pctSubmit+pctHit+pctSlice+pctProject:
			kind = "project"
			ok = b.query(root, "/v1/runs/"+p.key+"/project?axes=lock", p.project)
		case r < pctSubmit+pctHit+pctSlice+pctProject+pctDiff:
			kind = "diff"
			ok = b.diff(root, p, next)
		default:
			kind = "metrics"
			sp := b.c.tracer.begin("GET /metrics", root)
			body, code, err := b.get("/metrics")
			b.c.tracer.end(sp)
			ok = err == nil && code == http.StatusOK && bytes.Contains(body, []byte("# TYPE"))
		}
		l.ops[kind] = append(l.ops[kind], ms(time.Since(start)))
		if !ok {
			l.failed++
		}
	}
}

// uncached submits a run under a fresh seed, follows it to done and
// fetches it. The admit, queue, run and fetch times go to the log.
func (b *serveBench) uncached(seed int64, keep bool, parent int, l *clientLog) bool {
	var spec []byte
	var id string
	var e experiments.Experiment
	switch l.rng.Intn(3) {
	case 0:
		spec = input("kyoto.json")
	case 1:
		spec = b.ham
	default:
		id = "fig8"
	}
	start := time.Now()
	sp := b.c.tracer.begin("POST /v1/runs", parent)
	key, code, err := b.submit(spec, id, seed)
	b.c.tracer.end(sp)
	admitted := time.Now()
	if err != nil || code != http.StatusAccepted {
		return false
	}
	sp = b.c.tracer.begin("GET /v1/runs/{key}/events", parent)
	running, done, err := b.awaitDone(key)
	b.c.tracer.end(sp)
	if err != nil {
		return false
	}
	l.steps["admit"] = append(l.steps["admit"], ms(admitted.Sub(start)))
	if !running.IsZero() {
		l.steps["queue"] = append(l.steps["queue"], ms(running.Sub(admitted)))
		l.steps["run"] = append(l.steps["run"], ms(done.Sub(running)))
	}
	sp = b.c.tracer.begin("GET /v1/runs/{key}", parent)
	t0 := time.Now()
	raw, code, err := b.get("/v1/runs/" + key)
	l.steps["fetch"] = append(l.steps["fetch"], ms(time.Since(t0)))
	b.c.tracer.end(sp)
	if err != nil || code != http.StatusOK {
		return false
	}
	run, err := results.Decode(raw)
	if err != nil || run.Meta.Seed != seed {
		return false
	}
	if keep {
		if spec != nil {
			c, err := scenario.ParseAndCompile(spec)
			if err != nil {
				return false
			}
			e = c.Experiment()
		} else if e, err = experiments.Find(id); err != nil {
			return false
		}
		l.reruns = append(l.reruns, submitted{exp: e, seed: seed, run: run})
	}
	return true
}

// query GETs a slice or projection and compares it byte for byte with
// the answer computed locally.
func (b *serveBench) query(parent int, path string, want []byte) bool {
	sp := b.c.tracer.begin("GET "+strings.SplitN(path, "?", 2)[0], parent)
	body, code, err := b.get(path)
	b.c.tracer.end(sp)
	return err == nil && code == http.StatusOK && bytes.Equal(body, want)
}

func (b *serveBench) diff(parent int, base, cur *prefilled) bool {
	q := url.Values{"a": {base.key}, "b": {cur.key}, "slice": {"read=90"}}
	sp := b.c.tracer.begin("GET /v1/diff", parent)
	body, code, err := b.get("/v1/diff?" + q.Encode())
	b.c.tracer.end(sp)
	if err != nil || code != http.StatusOK {
		return false
	}
	var got diffAnswer
	return json.Unmarshal(body, &got) == nil && got == base.diff
}

// check verifies the prefilled answers against the golden digests,
// re-simulates every rerunEvery-th uncached run locally, and times the
// results-layer calls the service makes, on the prefilled runs.
func (b *serveBench) check(c *config, m *measurement) error {
	for _, o := range b.digests {
		m.expect(m.ver.ok(o.name, o.digest))
	}
	for _, s := range b.reruns {
		sp := c.tracer.begin("experiments.Run (re-run)", 0)
		tabs := s.exp.Run(experiments.Options{Seed: s.seed, Scale: serveScale * c.size, Quick: true})
		c.tracer.end(sp)
		m.expect(renderTables(tabs) == renderTables(s.run.Tables))
	}
	return b.timeResults(c, m)
}

// timeResults times local results-layer calls on the prefilled runs; the
// run reports each call's median.
func (b *serveBench) timeResults(c *config, m *measurement) error {
	timed := func(name string, f func() error) error {
		sp := c.tracer.begin("results."+name, 0)
		start := time.Now()
		err := f()
		m.add("results."+name+"_ms", ms(time.Since(start)))
		c.tracer.end(sp)
		return err
	}
	for rep := 0; rep < 5; rep++ {
		for i := range b.prefill {
			p, next := &b.prefill[i], &b.prefill[(i+1)%prefillRuns]
			for _, call := range []struct {
				name string
				f    func() error
			}{
				{"decode", func() error { _, err := results.Decode(p.raw); return err }},
				{"encode", func() error { _, err := results.Encode(p.run); return err }},
				{"slice", func() error { _, err := results.Slice(p.run, sliceFix); return err }},
				{"project", func() error { _, err := results.Project(p.run, projectAxes); return err }},
				{"compare", func() error { _, err := localDiff(p.run, next.run); return err }},
			} {
				if err := timed(call.name, call.f); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

func (b *serveBench) close() {
	b.ts.Close()
	b.srv.Close()
	os.RemoveAll(b.dir)
}
