package serve_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"lockin/internal/results"
	"lockin/internal/scenario"
	"lockin/internal/serve"
)

// testSpec is a tiny but non-trivial scenario: a 1×1×2 grid over the
// lock axis, short windows, so one submission simulates in well under
// a second while still carrying axes for slice/project/diff.
const testSpec = `{
  "name": "servetest",
  "title": "Scenario servetest — service e2e grid",
  "warmup_cycles": 50000,
  "duration_cycles": 1000000,
  "locks": [{"name": "hot", "topology": "single"}],
  "groups": [
    {"name": "worker", "threads": 0, "outside_cycles": 400,
     "ops": [{"lock": "hot"}]}
  ],
  "sweep": {
    "threads": [2],
    "cs": [800],
    "locks": ["MUTEX", "MUTEXEE"]
  }
}`

func newTestServer(t *testing.T) (*serve.Server, *httptest.Server) {
	t.Helper()
	srv, err := serve.New(serve.Config{
		CacheDir: t.TempDir(),
		Pool:     2,
	})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		hs.Close()
		srv.Close()
	})
	return srv, hs
}

// get fetches a path and returns status and body.
func get(t *testing.T, hs *httptest.Server, path string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(hs.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

// post submits a run (spec body or empty) and returns status and body.
func post(t *testing.T, hs *httptest.Server, path, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(hs.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

// submitAndWait posts a submission and polls GET /v1/runs/{key} until
// the run bytes land in the cache, returning the key and the stored
// bytes.
func submitAndWait(t *testing.T, hs *httptest.Server, path, body string) (string, []byte) {
	t.Helper()
	code, b := post(t, hs, path, body)
	if code != http.StatusAccepted && code != http.StatusOK {
		t.Fatalf("POST %s: status %d, body %s", path, code, b)
	}
	var sub struct {
		Key    string `json:"key"`
		Status string `json:"status"`
	}
	if err := json.Unmarshal(b, &sub); err != nil {
		t.Fatalf("submit response %s: %v", b, err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		code, rb := get(t, hs, "/v1/runs/"+sub.Key)
		switch code {
		case http.StatusOK:
			return sub.Key, rb
		case http.StatusAccepted:
			if time.Now().After(deadline) {
				t.Fatalf("run %s did not finish in time", sub.Key)
			}
			time.Sleep(20 * time.Millisecond)
		default:
			t.Fatalf("GET /v1/runs/%s: status %d, body %s", sub.Key, code, rb)
		}
	}
}

func TestHealthz(t *testing.T) {
	_, hs := newTestServer(t)
	code, b := get(t, hs, "/healthz")
	if code != http.StatusOK {
		t.Fatalf("healthz: status %d, body %q", code, b)
	}
	var h struct {
		Status        string  `json:"status"`
		UptimeSeconds float64 `json:"uptime_seconds"`
		QueueDepth    int     `json:"queue_depth"`
		QueueCapacity int     `json:"queue_capacity"`
		CacheWritable bool    `json:"cache_writable"`
	}
	if err := json.Unmarshal(b, &h); err != nil {
		t.Fatalf("healthz is not JSON: %v (body %q)", err, b)
	}
	if h.Status != "ok" || !h.CacheWritable {
		t.Errorf("healthz = %+v, want status ok with a writable cache", h)
	}
	if h.QueueCapacity <= 0 || h.QueueDepth < 0 || h.UptimeSeconds < 0 {
		t.Errorf("healthz load fields out of range: %+v", h)
	}
}

func TestExperimentsListing(t *testing.T) {
	_, hs := newTestServer(t)
	code, b := get(t, hs, "/v1/experiments")
	if code != http.StatusOK {
		t.Fatalf("experiments: status %d, body %s", code, b)
	}
	var out struct {
		Experiments []struct {
			ID       string `json:"id"`
			SpecHash string `json:"spec_hash"`
		} `json:"experiments"`
	}
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	ids := map[string]string{}
	for _, e := range out.Experiments {
		ids[e.ID] = e.SpecHash
	}
	if _, ok := ids["fig11"]; !ok {
		t.Errorf("listing lacks the built-in fig11 experiment: %v", ids)
	}
	if hash, ok := ids["scenario:kyoto"]; !ok || hash == "" {
		t.Errorf("listing lacks bundled scenario:kyoto with a spec hash: %v", ids)
	}
}

// TestSubmitPollSliceProjectDiff walks the whole service surface over
// one submitted spec: enqueue, poll to completion, fetch the run,
// check the slice endpoint answers byte-identically to the query
// layer's own encoding, project, and self-diff to equality. Each query
// is sent twice: the second is answered from the held decoded run and
// must not differ, and the held run must still encode to the stored
// bytes afterwards, so no query modified it.
func TestSubmitPollSliceProjectDiff(t *testing.T) {
	srv, hs := newTestServer(t)
	key, raw := submitAndWait(t, hs, "/v1/runs?seed=7&quick=1", testSpec)
	// getTwice sends a query twice and returns the first answer once
	// the second has matched it.
	getTwice := func(path string) (int, []byte) {
		t.Helper()
		code, b := get(t, hs, path)
		code2, b2 := get(t, hs, path)
		if code2 != code || !bytes.Equal(b2, b) {
			t.Errorf("GET %s answered %d then %d, bodies equal %t", path, code, code2, bytes.Equal(b2, b))
		}
		return code, b
	}

	run := decodeRun(t, raw)
	if run.Meta.Experiment != "scenario:servetest" {
		t.Errorf("experiment = %q, want scenario:servetest", run.Meta.Experiment)
	}
	if run.Meta.Seed != 7 || !run.Meta.Quick {
		t.Errorf("meta did not carry the query options: %+v", run.Meta)
	}
	if run.Meta.CacheKey() != key {
		t.Errorf("stored meta cache key %q != submission key %q", run.Meta.CacheKey(), key)
	}

	// Slice over HTTP must be byte-identical to slicing the stored run
	// locally and encoding with the store's encoder — the same
	// guarantee the CLI's -load/-slice/-json path gives.
	code, sliced := getTwice("/v1/runs/" + key + "/slice?lock=MUTEX")
	if code != http.StatusOK {
		t.Fatalf("slice: status %d, body %s", code, sliced)
	}
	wantRun, err := results.Slice(run, []results.Fix{{Axis: "lock", Value: "MUTEX"}})
	if err != nil {
		t.Fatal(err)
	}
	want, err := results.Encode(wantRun)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sliced, want) {
		t.Errorf("slice over HTTP differs from local slice+encode:\nhttp: %d bytes\nlocal: %d bytes", len(sliced), len(want))
	}

	code, projected := getTwice("/v1/runs/" + key + "/project?axes=lock")
	if code != http.StatusOK {
		t.Fatalf("project: status %d, body %s", code, projected)
	}
	var pr results.Run
	if err := json.Unmarshal(projected, &pr); err != nil {
		t.Fatal(err)
	}
	if pr.Meta.Query == "" {
		t.Errorf("projected run lacks a query annotation: %+v", pr.Meta)
	}

	code, diff := getTwice("/v1/diff?a=" + key + "&b=" + key)
	if code != http.StatusOK {
		t.Fatalf("diff: status %d, body %s", code, diff)
	}
	var dr struct {
		Equal       bool `json:"equal"`
		Differences int  `json:"differences"`
	}
	if err := json.Unmarshal(diff, &dr); err != nil {
		t.Fatal(err)
	}
	if !dr.Equal || dr.Differences != 0 {
		t.Errorf("self-diff: equal=%t differences=%d, want equal with none", dr.Equal, dr.Differences)
	}

	held := serve.HeldRun(srv, key)
	if held == nil {
		t.Fatal("the queries left no held run")
	}
	if b, err := results.Encode(held); err != nil || !bytes.Equal(b, raw) {
		t.Errorf("the held run no longer encodes to the stored bytes (err %v): a query modified it", err)
	}
}

// TestDedupeCacheHit is the tentpole acceptance: a second identical
// POST answers from the cache and never re-simulates.
func TestDedupeCacheHit(t *testing.T) {
	srv, hs := newTestServer(t)
	key, _ := submitAndWait(t, hs, "/v1/runs?quick=1", testSpec)
	if n := srv.Simulated(); n != 1 {
		t.Fatalf("after first submission: simulated %d sweeps, want 1", n)
	}

	code, b := post(t, hs, "/v1/runs?quick=1", testSpec)
	if code != http.StatusOK {
		t.Fatalf("second POST: status %d, body %s", code, b)
	}
	var sub struct {
		Key    string `json:"key"`
		Status string `json:"status"`
	}
	if err := json.Unmarshal(b, &sub); err != nil {
		t.Fatal(err)
	}
	if sub.Status != "cached" || sub.Key != key {
		t.Errorf("second POST: key=%q status=%q, want key=%q status=cached", sub.Key, sub.Status, key)
	}
	if n := srv.Simulated(); n != 1 {
		t.Errorf("second POST re-simulated: %d sweeps, want still 1", n)
	}

	// Different options are a different workload, not a cache hit.
	code, b = post(t, hs, "/v1/runs?quick=1&seed=99", testSpec)
	if code != http.StatusAccepted {
		t.Fatalf("different-seed POST: status %d, body %s", code, b)
	}
	if err := json.Unmarshal(b, &sub); err != nil {
		t.Fatal(err)
	}
	if sub.Key == key {
		t.Errorf("different seed mapped to the same cache key %q", key)
	}
}

// TestConcurrentIdenticalSubmissions hammers one workload from many
// clients; the dedupe must collapse them to a single simulation.
func TestConcurrentIdenticalSubmissions(t *testing.T) {
	srv, hs := newTestServer(t)
	const clients = 8
	keys := make([]string, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(hs.URL+"/v1/runs?quick=1", "application/json", strings.NewReader(testSpec))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			b, _ := io.ReadAll(resp.Body)
			if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
				t.Errorf("client %d: status %d, body %s", i, resp.StatusCode, b)
				return
			}
			var sub struct {
				Key string `json:"key"`
			}
			if err := json.Unmarshal(b, &sub); err != nil {
				t.Errorf("client %d: %v", i, err)
				return
			}
			keys[i] = sub.Key
		}(i)
	}
	wg.Wait()
	for i := 1; i < clients; i++ {
		if keys[i] != keys[0] {
			t.Fatalf("client %d got key %q, client 0 got %q", i, keys[i], keys[0])
		}
	}
	// Wait for the single run to land, then check exactly one
	// simulation happened.
	deadline := time.Now().Add(30 * time.Second)
	for {
		code, _ := get(t, hs, "/v1/runs/"+keys[0])
		if code == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("run never completed")
		}
		time.Sleep(20 * time.Millisecond)
	}
	if n := srv.Simulated(); n != 1 {
		t.Errorf("%d concurrent identical submissions simulated %d sweeps, want 1", clients, n)
	}
}

func TestListRuns(t *testing.T) {
	_, hs := newTestServer(t)
	key, _ := submitAndWait(t, hs, "/v1/runs?quick=1", testSpec)
	code, b := get(t, hs, "/v1/runs")
	if code != http.StatusOK {
		t.Fatalf("list: status %d, body %s", code, b)
	}
	var out struct {
		Runs []struct {
			Key string `json:"key"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range out.Runs {
		if r.Key == key {
			found = true
		}
	}
	if !found {
		t.Errorf("list lacks completed run %q: %s", key, b)
	}
}

// TestEvents streams the SSE endpoint of a submission and expects a
// terminal done event; a cached key answers done immediately.
func TestEvents(t *testing.T) {
	_, hs := newTestServer(t)
	key, _ := submitAndWait(t, hs, "/v1/runs?quick=1", testSpec)

	resp, err := http.Get(hs.URL + "/v1/runs/" + key + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events content-type = %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	sawDone := false
	for sc.Scan() {
		if strings.HasPrefix(sc.Text(), "event: done") {
			sawDone = true
		}
	}
	if !sawDone {
		t.Error("SSE stream of a cached run never sent event: done")
	}
}

func TestBadRequests(t *testing.T) {
	_, hs := newTestServer(t)
	key, _ := submitAndWait(t, hs, "/v1/runs?quick=1", testSpec)

	cases := []struct {
		method, path, body string
		wantCode           int
		wantMsg            string
	}{
		{"POST", "/v1/runs", "", http.StatusBadRequest, "scenario spec"},
		{"POST", "/v1/runs?scale=abc&experiment=fig11", "", http.StatusBadRequest, "bad scale"},
		{"POST", "/v1/runs?bogus=1&experiment=fig11", "", http.StatusBadRequest, "unknown parameter"},
		{"POST", "/v1/runs?slice=read%3D90&experiment=fig11", "", http.StatusBadRequest, "unknown parameter"},
		{"POST", "/v1/runs?experiment=no-such-exp", "", http.StatusNotFound, "unknown experiment"},
		{"POST", "/v1/runs?experiment=fig11", testSpec, http.StatusBadRequest, "not both"},
		{"POST", "/v1/runs", "{not json", http.StatusBadRequest, ""},
		{"GET", "/v1/runs/" + key + "/slice?nosuchaxis=1", "", http.StatusBadRequest, ""},
		{"GET", "/v1/runs/" + key + "/project", "", http.StatusBadRequest, "axes"},
		{"GET", "/v1/runs/" + key + "/project?axes=lock&bogus=1", "", http.StatusBadRequest, "unknown parameter"},
		{"GET", "/v1/runs/%2e%2e/slice?read=90", "", http.StatusBadRequest, "bad run key"},
		{"GET", "/v1/diff?a=" + key, "", http.StatusBadRequest, "diff wants"},
		{"GET", "/v1/diff?a=" + key + "&b=" + key + "&tol=NaN", "", http.StatusBadRequest, "bad tol"},
		{"GET", "/v1/runs/no-such-key", "", http.StatusNotFound, "no such run"},
		{"GET", "/v1/runs/no-such-key/slice?read=90", "", http.StatusNotFound, "no such run"},
	}
	for _, c := range cases {
		var code int
		var b []byte
		switch c.method {
		case "GET":
			code, b = get(t, hs, c.path)
		case "POST":
			code, b = post(t, hs, c.path, c.body)
		}
		if code != c.wantCode {
			t.Errorf("%s %s: status %d, want %d (body %s)", c.method, c.path, code, c.wantCode, b)
			continue
		}
		if c.wantMsg != "" && !strings.Contains(string(b), c.wantMsg) {
			t.Errorf("%s %s: body %q, want containing %q", c.method, c.path, b, c.wantMsg)
		}
	}
}

// TestFailedRunAnswers500 pins the answer for a run whose simulation
// failed: GET and every query answer 500 with the failed status, as a
// client polling until the answer stops being 202 expects. A failed job
// stays in the server's table, so before the fix the queries answered
// 202 forever.
func TestFailedRunAnswers500(t *testing.T) {
	srv, hs := newTestServer(t)
	key, _ := submitAndWait(t, hs, "/v1/runs?quick=1", testSpec)
	const failed = "failed-run"
	serve.AddFailedJob(srv, failed, "simulation panicked: boom")
	for _, path := range []string{
		"/v1/runs/" + failed,
		"/v1/runs/" + failed + "/slice?lock=MUTEX",
		"/v1/runs/" + failed + "/project?axes=lock",
		"/v1/diff?a=" + failed + "&b=" + key,
		"/v1/diff?a=" + key + "&b=" + failed,
	} {
		code, b := get(t, hs, path)
		var ev serve.Event
		if err := json.Unmarshal(b, &ev); err != nil {
			t.Errorf("GET %s: %d %s: not an event: %v", path, code, b, err)
			continue
		}
		if code != http.StatusInternalServerError || ev.Status != "failed" || !strings.Contains(ev.Error, "boom") {
			t.Errorf("GET %s: %d %+v, want 500 with the failed status", path, code, ev)
		}
	}
}

// TestSubmitByExperimentID runs a registered experiment end to end
// through the service, by id rather than by spec body.
func TestSubmitByExperimentID(t *testing.T) {
	_, hs := newTestServer(t)
	key, raw := submitAndWait(t, hs,
		"/v1/runs?experiment="+url.QueryEscape("scenario:kyoto")+"&quick=1", "")
	run := decodeRun(t, raw)
	if run.Meta.Experiment != "scenario:kyoto" {
		t.Errorf("experiment = %q, want scenario:kyoto", run.Meta.Experiment)
	}
	if !strings.HasPrefix(key, "scenario-kyoto-") {
		t.Errorf("cache key %q lacks the experiment slug prefix", key)
	}
}

// TestSpecBodyAndIDShareCache submits the bundled kyoto scenario once
// by spec body and once by id; the spec hash dominates the cache key,
// so the second submission is a cache hit even though the first named
// no experiment at all.
func TestSpecBodyAndIDShareCache(t *testing.T) {
	srv, hs := newTestServer(t)
	// Read the spec through the bundle so its bytes — and so its spec
	// hash — match the registered scenario:kyoto experiment exactly.
	spec, err := scenario.BundledSpec("kyoto.json")
	if err != nil {
		t.Fatal(err)
	}
	key1, _ := submitAndWait(t, hs, "/v1/runs?quick=1", string(spec))
	code, b := post(t, hs, "/v1/runs?experiment="+url.QueryEscape("scenario:kyoto")+"&quick=1", "")
	if code != http.StatusOK {
		t.Fatalf("by-id POST after by-body run: status %d, body %s", code, b)
	}
	var sub struct {
		Key    string `json:"key"`
		Status string `json:"status"`
	}
	if err := json.Unmarshal(b, &sub); err != nil {
		t.Fatal(err)
	}
	if sub.Key != key1 || sub.Status != "cached" {
		t.Errorf("by-id POST: key=%q status=%q, want key=%q status=cached", sub.Key, sub.Status, key1)
	}
	if n := srv.Simulated(); n != 1 {
		t.Errorf("spec body and id of the same scenario simulated %d sweeps, want 1", n)
	}
}

// decodeRun unmarshals stored run bytes the way results.Load does.
func decodeRun(t *testing.T, raw []byte) *results.Run {
	t.Helper()
	var run results.Run
	if err := json.Unmarshal(raw, &run); err != nil {
		t.Fatalf("stored run does not decode: %v", err)
	}
	return &run
}

// promSamples fetches /metrics, checks the exposition content type and
// basic text-format validity, and returns the unlabeled scalar samples
// by name.
func promSamples(t *testing.T, hs *httptest.Server) map[string]float64 {
	t.Helper()
	resp, err := http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("metrics content-type = %q, want the 0.0.4 exposition type", ct)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	typed := map[string]bool{}
	vals := map[string]float64{}
	for _, line := range strings.Split(strings.TrimRight(string(b), "\n"), "\n") {
		if strings.HasPrefix(line, "# HELP ") {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			f := strings.Fields(line)
			if len(f) != 4 {
				t.Fatalf("bad TYPE line %q", line)
			}
			typed[f[2]] = true
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok || name == "" {
			t.Fatalf("line %q is not a valid Prometheus sample", line)
		}
		if strings.Contains(name, "{") {
			continue // labeled series (histograms); validity only
		}
		f, err := strconv.ParseFloat(val, 64)
		if err != nil {
			t.Fatalf("sample %q has non-numeric value %q", name, val)
		}
		if !typed[name] && !typed[strings.TrimSuffix(name, "_sum")] && !typed[strings.TrimSuffix(name, "_count")] {
			t.Fatalf("sample %q has no preceding # TYPE", name)
		}
		vals[name] = f
	}
	return vals
}

// TestMetricsEndpoint walks enqueue → cache hit → slice and asserts the
// scrape moves with it: one miss then one hit, exactly one simulation,
// served runs counting both the stored fetch and the slice, and the
// engine/simulator totals advancing. Process-wide counters (sweep, sim)
// are compared as deltas: other tests in the binary also simulate.
func TestMetricsEndpoint(t *testing.T) {
	_, hs := newTestServer(t)
	before := promSamples(t, hs)

	key, _ := submitAndWait(t, hs, "/v1/runs?quick=1", testSpec)
	if code, b := post(t, hs, "/v1/runs?quick=1", testSpec); code != http.StatusOK {
		t.Fatalf("second POST: status %d, body %s", code, b)
	}
	if code, _ := get(t, hs, "/v1/runs/"+key+"/slice?lock=MUTEX"); code != http.StatusOK {
		t.Fatalf("slice: status %d", code)
	}

	after := promSamples(t, hs)
	if after["cache_misses_total"] != 1 {
		t.Errorf("cache_misses_total = %v, want 1", after["cache_misses_total"])
	}
	if after["cache_hits_total"] < 1 {
		t.Errorf("cache_hits_total = %v, want >= 1", after["cache_hits_total"])
	}
	if after["runs_simulated_total"] != 1 {
		t.Errorf("runs_simulated_total = %v, want 1", after["runs_simulated_total"])
	}
	if ratio := after["cache_hit_ratio"]; ratio < 0.5 || ratio > 1 {
		t.Errorf("cache_hit_ratio = %v, want within [0.5, 1]", ratio)
	}
	// The completion poll fetched the stored run at least once; the
	// slice fetch adds one more.
	if after["runs_served_total"] < 2 {
		t.Errorf("runs_served_total = %v, want >= 2", after["runs_served_total"])
	}
	if after["queue_capacity"] <= 0 {
		t.Errorf("queue_capacity = %v, want > 0", after["queue_capacity"])
	}
	if d := after["sweep_cells_total"] - before["sweep_cells_total"]; d < 2 {
		t.Errorf("sweep_cells_total moved by %v, want >= 2 (the spec's grid)", d)
	}
	for _, c := range []string{"sim_event_pool_recycles_total", "sim_coroutine_resumes_total"} {
		if d := after[c] - before[c]; d <= 0 {
			t.Errorf("%s did not move (delta %v)", c, d)
		}
	}
	if after["sim_heap_high_water"] <= 0 {
		t.Errorf("sim_heap_high_water = %v, want > 0", after["sim_heap_high_water"])
	}
}

// TestRunCarriesPerfProvenance asserts a service-produced run records
// how it was made: wall time, cell count and throughput.
func TestRunCarriesPerfProvenance(t *testing.T) {
	_, hs := newTestServer(t)
	_, raw := submitAndWait(t, hs, "/v1/runs?quick=1", testSpec)
	run := decodeRun(t, raw)
	p := run.Meta.Perf
	if p == nil {
		t.Fatal("stored run has no perf provenance")
	}
	if p.Cells != 2 || p.WallMS <= 0 || p.CellsPerSec <= 0 || p.Host == "" {
		t.Errorf("perf = %+v, want 2 cells with positive wall time and throughput", p)
	}
}

// slowSpec simulates long enough that the queue can be observed full.
const slowSpec = `{
  "name": "servetest-slow",
  "title": "Scenario servetest-slow — queue backpressure",
  "warmup_cycles": 50000,
  "duration_cycles": 1500000000,
  "locks": [{"name": "hot", "topology": "single"}],
  "groups": [
    {"name": "worker", "threads": 0, "outside_cycles": 400,
     "ops": [{"lock": "hot"}]}
  ],
  "sweep": {
    "threads": [2],
    "cs": [800],
    "locks": ["MUTEX"]
  }
}`

// TestBusyQueueRetryAfter fills a Pool=1/QueueDepth=1 server — one run
// simulating, one queued — and expects the next distinct submission to
// answer 503 with a Retry-After hint.
func TestBusyQueueRetryAfter(t *testing.T) {
	srv, err := serve.New(serve.Config{CacheDir: t.TempDir(), Pool: 1, QueueDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		hs.Close()
		srv.Close()
	})

	code, b := post(t, hs, "/v1/runs?quick=1", slowSpec)
	if code != http.StatusAccepted {
		t.Fatalf("first POST: status %d, body %s", code, b)
	}
	var sub struct {
		Key string `json:"key"`
	}
	if err := json.Unmarshal(b, &sub); err != nil {
		t.Fatal(err)
	}
	// Wait until the worker picked the first job up, so the next
	// submission occupies the queue rather than the worker.
	deadline := time.Now().Add(30 * time.Second)
	for {
		code, rb := get(t, hs, "/v1/runs/"+sub.Key)
		if code != http.StatusAccepted {
			t.Fatalf("slow run landed early (status %d, body %s) — make slowSpec slower", code, rb)
		}
		var ev struct {
			Status string `json:"status"`
		}
		if err := json.Unmarshal(rb, &ev); err != nil {
			t.Fatal(err)
		}
		if ev.Status == "running" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("first submission never started running")
		}
		time.Sleep(5 * time.Millisecond)
	}

	if code, b := post(t, hs, "/v1/runs?quick=1&seed=2", slowSpec); code != http.StatusAccepted {
		t.Fatalf("queue-filling POST: status %d, body %s", code, b)
	}
	resp, err := http.Post(hs.URL+"/v1/runs?quick=1&seed=3", "application/json", strings.NewReader(slowSpec))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	rb, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("over-capacity POST: status %d, body %s, want 503", resp.StatusCode, rb)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("503 rejection carries no Retry-After header")
	}
	vals := promSamples(t, hs)
	if vals["submissions_rejected_total"] < 1 {
		t.Errorf("submissions_rejected_total = %v, want >= 1", vals["submissions_rejected_total"])
	}
}

// TestFinishedRunsLeaveNoGoroutines is the service-level leak gate: a
// long-running server must not keep the machines of the runs it has
// finished. Figure 3 parks every sleeping thread on a futex nobody
// wakes; each such thread must end with its simulation, or every fig3
// submission pins its machine for the life of the process.
func TestFinishedRunsLeaveNoGoroutines(t *testing.T) {
	srv, err := serve.New(serve.Config{CacheDir: t.TempDir(), Pool: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	h := srv.Handler()
	do := func(method, path string) (int, []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, nil))
		return rec.Code, rec.Body.Bytes()
	}
	before := runtime.NumGoroutine()
	var keys []string
	for seed := 1; seed <= 4; seed++ {
		code, b := do(http.MethodPost, "/v1/runs?experiment=fig3&quick=1&scale=0.25&workers=1&seed="+strconv.Itoa(seed))
		var sub struct {
			Key string `json:"key"`
		}
		if code != http.StatusAccepted || json.Unmarshal(b, &sub) != nil {
			t.Fatalf("submit fig3 seed %d: status %d, body %s", seed, code, b)
		}
		keys = append(keys, sub.Key)
	}
	deadline := time.Now().Add(30 * time.Second)
	for _, key := range keys {
		for {
			code, b := do(http.MethodGet, "/v1/runs/"+key)
			if code == http.StatusOK {
				break
			}
			if code != http.StatusAccepted || time.Now().After(deadline) {
				t.Fatalf("run %s: status %d, body %s", key, code, b)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	n := runtime.NumGoroutine()
	for settle := time.Now().Add(time.Second); n > before && time.Now().Before(settle); n = runtime.NumGoroutine() {
		time.Sleep(time.Millisecond)
	}
	if n > before {
		t.Errorf("%d goroutines after %d fig3 runs landed, want at most %d (%+d)", n, len(keys), before, n-before)
	}
}
