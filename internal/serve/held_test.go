package serve_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"lockin/internal/bench/opts"
	"lockin/internal/results"
	"lockin/internal/serve"
)

// diffAnswer is the part of a /v1/diff answer that depends on the runs.
type diffAnswer struct {
	Equal       bool   `json:"equal"`
	Differences int    `json:"differences"`
	Report      string `json:"report"`
}

// localDiff is the answer GET /v1/diff?a=…&b=…&slice=lock=MUTEX must
// give, computed from the stored runs with the query layer directly.
func localDiff(t *testing.T, base, cur *results.Run) diffAnswer {
	t.Helper()
	q := opts.Query{Fixes: []results.Fix{{Axis: "lock", Value: "MUTEX"}}}
	c, err := q.Apply(cur)
	if err != nil {
		t.Fatal(err)
	}
	b, err := q.ApplyToBaseline(base)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := results.ComparePlanes(b, c, opts.Defaults().Tolerance())
	if err != nil {
		t.Fatal(err)
	}
	return diffAnswer{Equal: rep.Empty(), Differences: rep.NumDiffs(), Report: rep.String()}
}

// fetch GETs a path from any goroutine: it reports a failure with
// t.Error and returns a nil body.
func fetch(t *testing.T, hs *httptest.Server, path string) []byte {
	resp, err := http.Get(hs.URL + path)
	if err != nil {
		t.Error(err)
		return nil
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Errorf("GET %s: status %d, err %v, body %s", path, resp.StatusCode, err, b)
		return nil
	}
	return b
}

// TestConcurrentQueriesShareHeldRun has 8 goroutines slice, project
// and diff the same key at once, starting with nothing held, so they
// race to decode and hold it and then share one decoded run. Every
// answer must equal the one computed locally, and the shared run must
// still encode to its stored bytes. Run it under -race: a query that
// wrote to the shared run would be reported.
func TestConcurrentQueriesShareHeldRun(t *testing.T) {
	srv, hs := newTestServer(t)
	keyA, rawA := submitAndWait(t, hs, "/v1/runs", testSpec)
	// Two seeds of the spec's tiny grid can read the same; a longer
	// non-critical section gives run B different cells on the same axes.
	keyB, rawB := submitAndWait(t, hs, "/v1/runs",
		strings.Replace(testSpec, `"outside_cycles": 400`, `"outside_cycles": 4000`, 1))
	runA, runB := decodeRun(t, rawA), decodeRun(t, rawB)

	sliced, err := results.Slice(runA, []results.Fix{{Axis: "lock", Value: "MUTEX"}})
	if err != nil {
		t.Fatal(err)
	}
	projected, err := results.Project(runA, []string{"lock"})
	if err != nil {
		t.Fatal(err)
	}
	wantSlice, err := results.Encode(sliced)
	if err != nil {
		t.Fatal(err)
	}
	wantProject, err := results.Encode(projected)
	if err != nil {
		t.Fatal(err)
	}
	wantSelf, wantAB := localDiff(t, runA, runA), localDiff(t, runA, runB)
	if !wantSelf.Equal || wantAB.Equal {
		t.Fatalf("test runs do not differ: self-diff equal %t, A-B equal %t", wantSelf.Equal, wantAB.Equal)
	}

	diffEquals := func(path string, want diffAnswer) {
		b := fetch(t, hs, path)
		if b == nil {
			return
		}
		var got diffAnswer
		if err := json.Unmarshal(b, &got); err != nil || got != want {
			t.Errorf("GET %s = %+v (err %v), want %+v", path, got, err, want)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				if b := fetch(t, hs, "/v1/runs/"+keyA+"/slice?lock=MUTEX"); b != nil && !bytes.Equal(b, wantSlice) {
					t.Errorf("concurrent slice differs from the local slice")
				}
				if b := fetch(t, hs, "/v1/runs/"+keyA+"/project?axes=lock"); b != nil && !bytes.Equal(b, wantProject) {
					t.Errorf("concurrent projection differs from the local projection")
				}
				diffEquals("/v1/diff?a="+keyA+"&b="+keyA+"&slice=lock=MUTEX", wantSelf)
				diffEquals("/v1/diff?a="+keyA+"&b="+keyB+"&slice=lock=MUTEX", wantAB)
			}
		}()
	}
	wg.Wait()

	for key, raw := range map[string][]byte{keyA: rawA, keyB: rawB} {
		held := serve.HeldRun(srv, key)
		if held == nil {
			t.Errorf("run %s is not held after its queries", key)
			continue
		}
		if b, err := results.Encode(held); err != nil || !bytes.Equal(b, raw) {
			t.Errorf("held run %s no longer encodes to its stored bytes (err %v)", key, err)
		}
	}
}

// TestHeldRunsStayWithinBudget queries more runs than the budget
// holds: the held bytes never exceed it, the least recently queried
// run goes first, and a run larger than the whole budget is answered
// correctly without being held or pushing out the runs that are.
func TestHeldRunsStayWithinBudget(t *testing.T) {
	srv, hs := newTestServer(t)
	var keys []string
	var want [][]byte // each run's slice answer, computed locally
	var sizes []int64
	for _, path := range []string{"/v1/runs?seed=1", "/v1/runs?seed=2", "/v1/runs?seed=3", "/v1/runs"} {
		spec := testSpec
		if len(keys) == 3 {
			// The last run sweeps a third lock, so its file is larger.
			spec = strings.Replace(testSpec, `"MUTEX", "MUTEXEE"`, `"MUTEX", "MUTEXEE", "TICKET"`, 1)
		}
		key, raw := submitAndWait(t, hs, path, spec)
		sliced, err := results.Slice(decodeRun(t, raw), []results.Fix{{Axis: "lock", Value: "MUTEX"}})
		if err != nil {
			t.Fatal(err)
		}
		b, err := results.Encode(sliced)
		if err != nil {
			t.Fatal(err)
		}
		keys, want, sizes = append(keys, key), append(want, b), append(sizes, int64(len(raw)))
	}
	slice := func(i int) {
		t.Helper()
		if b := fetch(t, hs, "/v1/runs/"+keys[i]+"/slice?lock=MUTEX"); b != nil && !bytes.Equal(b, want[i]) {
			t.Errorf("slice of run %d differs from the local slice", i)
		}
	}
	held := func(i int) bool { return serve.HeldRun(srv, keys[i]) != nil }

	// Any two of the first three runs fit; all three do not.
	budget := sizes[0] + sizes[1] + sizes[2] - min(sizes[0], sizes[1], sizes[2])
	serve.SetHeldBudget(srv, budget)
	for _, i := range []int{0, 1, 2, 1, 0} {
		slice(i)
		if n, _ := serve.HeldBytes(srv); n > budget {
			t.Fatalf("held %d bytes after querying run %d, over the %d-byte budget", n, i, budget)
		}
	}
	// Querying 0, 1, 2 dropped 0; querying 1 and then 0 again dropped 2,
	// the least recently queried, not 1, the least recently held.
	if _, n := serve.HeldBytes(srv); n != 2 || !held(0) || !held(1) || held(2) {
		t.Errorf("held %d runs (0: %t, 1: %t, 2: %t), want runs 0 and 1", n, held(0), held(1), held(2))
	}

	// Under a budget that fits run 0 but not the larger run 3, queries
	// of run 3 still answer, and run 0 stays held.
	if sizes[3] <= sizes[0] {
		t.Fatalf("run 3 (%d bytes) is not larger than run 0 (%d bytes)", sizes[3], sizes[0])
	}
	serve.SetHeldBudget(srv, sizes[0])
	slice(0)
	slice(3)
	slice(3)
	if n, runs := serve.HeldBytes(srv); n != sizes[0] || runs != 1 || !held(0) {
		t.Errorf("held %d runs of %d bytes (run 0: %t), want run 0 alone", runs, n, held(0))
	}
}
