package serve_test

import (
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"lockin/internal/serve"
)

// newServerConfig starts a server with cfg (CacheDir filled in if
// empty) and mounts its handler.
func newServerConfig(t *testing.T, cfg serve.Config) (*serve.Server, *httptest.Server) {
	t.Helper()
	if cfg.CacheDir == "" {
		cfg.CacheDir = t.TempDir()
	}
	srv, err := serve.New(cfg)
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

// postAuth is post with an optional bearer token.
func postAuth(t *testing.T, hs *httptest.Server, path, body, token string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, hs.URL+path, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

// TestOversizedSpec413 is the regression test for the silent
// body-truncation bug: a >1 MiB spec used to be cut at the limit and
// surface as a baffling JSON parse 400; it must answer 413 naming the
// bound.
func TestOversizedSpec413(t *testing.T) {
	_, hs := newTestServer(t)
	fat := `{"pad":"` + strings.Repeat("x", 1<<20) + `"}`
	code, b := post(t, hs, "/v1/runs", fat)
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized spec: status %d, body %s; want 413", code, b)
	}
	if !strings.Contains(string(b), strconv.Itoa(1<<20)) {
		t.Errorf("413 body %q does not name the %d-byte limit", b, 1<<20)
	}
	if got := promSamples(t, hs)["submissions_oversized_total"]; got != 1 {
		t.Errorf("submissions_oversized_total = %v, want 1", got)
	}
}

// TestGuardedPaths walks the 401/413/429 surface of a server with an
// auth token and a tight request budget. The burst is 2: the two
// authenticated POSTs spend it (401s answer before the budget check),
// so the third authenticated request must see 429 with Retry-After.
func TestGuardedPaths(t *testing.T) {
	const token = "sekrit"
	_, hs := newServerConfig(t, serve.Config{
		Pool: 1, AuthToken: token, RateLimit: 0.01, RateBurst: 2,
	})
	fat := `{"pad":"` + strings.Repeat("x", 1<<20) + `"}`
	steps := []struct {
		name       string
		path, body string
		token      string
		wantCode   int
	}{
		{"no token", "/v1/runs?experiment=no-such", "", "", http.StatusUnauthorized},
		{"wrong token", "/v1/runs?experiment=no-such", "", "nope", http.StatusUnauthorized},
		{"authed oversized", "/v1/runs", fat, token, http.StatusRequestEntityTooLarge},
		{"authed unknown experiment", "/v1/runs?experiment=no-such", "", token, http.StatusNotFound},
		{"authed over budget", "/v1/runs?experiment=no-such", "", token, http.StatusTooManyRequests},
	}
	for _, st := range steps {
		resp := postAuth(t, hs, st.path, st.body, st.token)
		if resp.StatusCode != st.wantCode {
			t.Fatalf("%s: status %d, want %d", st.name, resp.StatusCode, st.wantCode)
		}
		switch st.wantCode {
		case http.StatusUnauthorized:
			if resp.Header.Get("WWW-Authenticate") == "" {
				t.Errorf("%s: 401 without a WWW-Authenticate challenge", st.name)
			}
		case http.StatusTooManyRequests:
			ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
			if err != nil || ra < 1 {
				t.Errorf("%s: Retry-After = %q, want an integer >= 1", st.name, resp.Header.Get("Retry-After"))
			}
		}
	}
	// GETs stay open: no token, still 200.
	if code, b := get(t, hs, "/healthz"); code != http.StatusOK {
		t.Errorf("healthz behind auth: status %d, body %s; want 200 (GETs stay open)", code, b)
	}
	m := promSamples(t, hs)
	if m["requests_unauthorized_total"] != 2 {
		t.Errorf("requests_unauthorized_total = %v, want 2", m["requests_unauthorized_total"])
	}
	if m["requests_rate_limited_total"] != 1 {
		t.Errorf("requests_rate_limited_total = %v, want 1", m["requests_rate_limited_total"])
	}
	if m["submissions_oversized_total"] != 1 {
		t.Errorf("submissions_oversized_total = %v, want 1", m["submissions_oversized_total"])
	}
}

// TestRateLimitKeysUnverifiedTokensByIP: without an auth token the
// server cannot verify a bearer token, so rotating tokens must not buy
// a fresh bucket per request. Ten POSTs from one address under a burst
// of 2 draw eight 429s, whatever tokens they carry.
func TestRateLimitKeysUnverifiedTokensByIP(t *testing.T) {
	_, hs := newServerConfig(t, serve.Config{Pool: 1, RateLimit: 0.01, RateBurst: 2})
	limited := 0
	for i := 0; i < 10; i++ {
		resp := postAuth(t, hs, "/v1/runs?experiment=no-such", "", "token-"+strconv.Itoa(i))
		if resp.StatusCode == http.StatusTooManyRequests {
			limited++
		}
	}
	if limited != 8 {
		t.Fatalf("%d of 10 POSTs with rotating unverified tokens answered 429, want 8", limited)
	}
}

// TestRateLimitMessageShowsFlooredBurst: a burst below 1 runs as a
// bucket of 1, and the 429 must name the burst actually applied.
func TestRateLimitMessageShowsFlooredBurst(t *testing.T) {
	_, hs := newServerConfig(t, serve.Config{Pool: 1, RateLimit: 0.01, RateBurst: 0})
	postAuth(t, hs, "/v1/runs?experiment=no-such", "", "")
	resp := postAuth(t, hs, "/v1/runs?experiment=no-such", "", "")
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusTooManyRequests || !strings.Contains(string(b), "burst 1)") {
		t.Fatalf("second POST under burst 0: status %d, body %q; want 429 naming burst 1", resp.StatusCode, b)
	}
}

// cacheRunFiles lists the stored run files of a cache directory.
func cacheRunFiles(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".json") {
			out = append(out, e.Name())
		}
	}
	return out
}

// TestEvictionMaxRuns fills a cache bounded to 2 runs with 3 distinct
// submissions; the oldest must be evicted and the bound hold. The
// oldest is sliced before it goes, so the query endpoints hold it
// decoded: the eviction must drop that copy too, and a later slice
// answer 404 instead of serving it.
func TestEvictionMaxRuns(t *testing.T) {
	dir := t.TempDir()
	srv, hs := newServerConfig(t, serve.Config{CacheDir: dir, Pool: 1, CacheMaxRuns: 2})
	slice := func(key string) string { return "/v1/runs/" + key + "/slice?lock=MUTEX" }
	var keys []string
	for _, seed := range []string{"1", "2", "3"} {
		key, _ := submitAndWait(t, hs, "/v1/runs?seed="+seed, testSpec)
		keys = append(keys, key)
		if len(keys) == 1 {
			if code, b := get(t, hs, slice(key)); code != http.StatusOK {
				t.Fatalf("slice of %s before its eviction: status %d, body %s", key, code, b)
			}
			if serve.HeldRun(srv, key) == nil {
				t.Fatalf("slicing %s held no decoded run", key)
			}
		}
	}
	// The eviction pass runs just after the save that made the run
	// visible, so the bound can lag a GET by a moment.
	deadline := time.Now().Add(5 * time.Second)
	files := cacheRunFiles(t, dir)
	for len(files) > 2 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
		files = cacheRunFiles(t, dir)
	}
	if len(files) > 2 {
		t.Fatalf("cache holds %d runs %v, want <= 2 (CacheMaxRuns)", len(files), files)
	}
	m := promSamples(t, hs)
	if m["cache_evictions_total"] < 1 {
		t.Errorf("cache_evictions_total = %v, want >= 1", m["cache_evictions_total"])
	}
	if m["cache_runs"] > 2 {
		t.Errorf("cache_runs gauge = %v, want <= 2", m["cache_runs"])
	}
	// The newest run survived.
	if code, _ := get(t, hs, "/v1/runs/"+keys[2]); code != http.StatusOK {
		t.Errorf("newest run %s: status %d, want 200 (eviction must be LRU)", keys[2], code)
	}
	// The pass dropped the evicted run's held copy with its file (it
	// does so just after the removal this test waited for).
	for serve.HeldRun(srv, keys[0]) != nil && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if serve.HeldRun(srv, keys[0]) != nil {
		t.Errorf("evicted run %s is still held", keys[0])
	}
	if code, b := get(t, hs, slice(keys[0])); code != http.StatusNotFound {
		t.Errorf("slice of evicted run %s: status %d, want 404; body %s", keys[0], code, b)
	}
}

// TestEvictionMaxBytesAtStartup bounds a prepopulated cache by bytes:
// reopening it under a cap one byte below the total must evict exactly
// the least-recently-used file during the startup pass.
func TestEvictionMaxBytesAtStartup(t *testing.T) {
	dir := t.TempDir()
	srvA, hsA := newServerConfig(t, serve.Config{CacheDir: dir, Pool: 1})
	var keys []string
	for _, seed := range []string{"1", "2", "3"} {
		key, _ := submitAndWait(t, hsA, "/v1/runs?seed="+seed, testSpec)
		keys = append(keys, key)
	}
	hsA.Close()
	srvA.Close()

	// Pin the LRU order: keys[0] oldest, keys[2] newest, spaced far
	// beyond any filesystem timestamp granularity.
	var total int64
	base := time.Now().Add(-time.Hour)
	for i, key := range keys {
		path := filepath.Join(dir, key+".json")
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		total += fi.Size()
		ts := base.Add(time.Duration(i) * time.Minute)
		if err := os.Chtimes(path, ts, ts); err != nil {
			t.Fatal(err)
		}
	}

	srvB, err := serve.New(serve.Config{CacheDir: dir, Pool: 1, CacheMaxBytes: total - 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srvB.Close()
	files := cacheRunFiles(t, dir)
	if len(files) != 2 {
		t.Fatalf("after startup eviction: %d runs %v, want 2", len(files), files)
	}
	if _, err := os.Stat(filepath.Join(dir, keys[0]+".json")); !os.IsNotExist(err) {
		t.Errorf("oldest run %s survived; eviction is not LRU", keys[0])
	}
}

// TestCloseDuringSubmits races shutdown against concurrent
// submissions: every request must get a clean answer — accepted before
// the close, or a 503 after — never a panic or a hang (run under
// -race).
func TestCloseDuringSubmits(t *testing.T) {
	srv, err := serve.New(serve.Config{CacheDir: t.TempDir(), Pool: 2})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			<-start
			resp, err := http.Post(hs.URL+"/v1/runs?seed="+strconv.Itoa(seed),
				"application/json", strings.NewReader(testSpec))
			if err != nil {
				t.Errorf("submit %d: %v", seed, err)
				return
			}
			defer resp.Body.Close()
			switch resp.StatusCode {
			case http.StatusOK, http.StatusAccepted, http.StatusServiceUnavailable:
			default:
				t.Errorf("submit %d during close: status %d", seed, resp.StatusCode)
			}
		}(i)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		srv.Close()
	}()
	close(start)
	wg.Wait()
	srv.Close() // idempotent
}
