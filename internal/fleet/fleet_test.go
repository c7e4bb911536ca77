package fleet

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lockin/internal/bench/opts"
	"lockin/internal/experiments"
	"lockin/internal/results"
)

const testExperiment = "fig10"

func testJob() JobSpec {
	return JobSpec{Experiment: testExperiment, Seed: 42, Scale: 1, Quick: true, Workers: 1}
}

// serialRun produces the single-process baseline the fleet must match
// byte for byte: the same experiment through the same option plumbing
// the worker uses, no ranges.
func serialRun(t *testing.T, job JobSpec) *results.Run {
	t.Helper()
	e, err := experiments.Find(job.Experiment)
	if err != nil {
		t.Fatal(err)
	}
	o := opts.Defaults()
	o.Seed, o.Scale, o.Quick, o.Workers = job.Seed, job.Scale, job.Quick, job.Workers
	if err := o.NormalizeAndValidate(); err != nil {
		t.Fatal(err)
	}
	tables := e.Run(o.Options)
	return &results.Run{Meta: o.RunMeta(e), Tables: tables}
}

// chunkRun simulates one lease's cell range the way a worker does.
func chunkRun(t *testing.T, job JobSpec, l Lease) *results.Run {
	t.Helper()
	e, o, err := job.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	o.RangeLo, o.RangeHi, o.RangeTotal = l.Lo, l.Hi, l.Total
	return &results.Run{Meta: o.RunMeta(e), Tables: e.Run(o.Options)}
}

func encode(t *testing.T, r *results.Run) []byte {
	t.Helper()
	b, err := results.Encode(r)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// encodeSansPerf canonicalizes a run for comparison the way
// scripts/runcmp does: Perf is provenance, not results.
func encodeSansPerf(t *testing.T, r *results.Run) []byte {
	t.Helper()
	cp := *r
	cp.Meta.Perf = nil
	b, err := results.Encode(&cp)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func waitDone(t *testing.T, c *Coordinator) {
	t.Helper()
	select {
	case <-c.Done():
	case <-time.After(2 * time.Minute):
		t.Fatal("fleet did not complete")
	}
}

// TestFleetByteIdentity is the tentpole contract end to end: a
// coordinator plus two workers over real HTTP produce, from leased
// chunks merged on arrival, the exact bytes of a serial run. fig13's
// chunks carry per-cell rows that the coordinator reduces once they
// cover the grid. fig15 runs as one whole-space chunk, whose run the
// worker already reduced and the coordinator must not reduce again.
func TestFleetByteIdentity(t *testing.T) {
	for _, c := range []struct {
		experiment string
		wholeSpace bool
	}{
		{testExperiment, false},
		{"fig13", false},
		{"fig15", true},
	} {
		t.Run(c.experiment, func(t *testing.T) {
			job := testJob()
			job.Experiment = c.experiment
			cfg := Config{Job: job, Expect: 2, LeaseTTL: time.Minute}
			if c.wholeSpace {
				cfg.MinChunk = 1 << 30
			}
			co, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if whole := len(co.queue) == 1; whole != c.wholeSpace {
				t.Fatalf("planned %d chunks over %d coordinates", len(co.queue), co.total)
			}
			srv := httptest.NewServer(co.Handler())
			defer srv.Close()

			var wg sync.WaitGroup
			errs := make([]error, 2)
			for i := range errs {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					errs[i] = Work(context.Background(), WorkerConfig{
						Addr: srv.URL, Name: fmt.Sprintf("w%d", i),
					})
				}(i)
			}
			waitDone(t, co)
			wg.Wait()
			for i, err := range errs {
				if err != nil {
					t.Errorf("worker %d: %v", i, err)
				}
			}

			run := co.Result()
			if run == nil {
				t.Fatal("Done closed but Result is nil")
			}
			if run.Meta.Range != nil {
				t.Fatalf("merged run still carries range %v", run.Meta.Range)
			}
			if run.Meta.Perf == nil {
				t.Fatal("merged run carries no perf provenance")
			}
			want := encodeSansPerf(t, serialRun(t, job))
			got := encodeSansPerf(t, run)
			if !bytes.Equal(got, want) {
				t.Fatalf("fleet run differs from serial run (%d vs %d bytes)", len(got), len(want))
			}

			st := co.Status()
			if !st.Done || st.Covered != st.Total {
				t.Fatalf("status after completion: %+v", st)
			}
			cells := uint64(0)
			for _, w := range st.Workers {
				cells += w.Cells
			}
			if int(cells) != co.cells {
				t.Fatalf("workers account for %d cells, fleet has %d", cells, co.cells)
			}
		})
	}
}

// TestIdleWorkerHearsDone is the end-to-end test of the held lease
// request: a worker with nothing left to do returns as soon as the run
// merges, not a polling interval later. One whole-space chunk leaves
// one of two workers idle for the whole run, and the chunk's result is
// held back until the idle worker has asked for work, so the run
// completes while it waits.
func TestIdleWorkerHearsDone(t *testing.T) {
	co, err := New(Config{Job: testJob(), Expect: 1, MinChunk: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	var leaseRequests atomic.Int32
	idleAsked := make(chan struct{})
	h := co.Handler()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/fleet/v1/lease":
			// The first request takes the only chunk; the second is
			// the idle worker's.
			if leaseRequests.Add(1) == 2 {
				close(idleAsked)
			}
		case "/fleet/v1/result":
			<-idleAsked
		}
		h.ServeHTTP(w, r)
	}))
	defer srv.Close()

	merged := make(chan time.Time, 1)
	go func() {
		<-co.Done()
		merged <- time.Now()
	}()
	var wg sync.WaitGroup
	errs := make([]error, 2)
	returned := make([]time.Time, 2)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = Work(context.Background(), WorkerConfig{
				Addr: srv.URL, Name: fmt.Sprintf("w%d", i),
			})
			returned[i] = time.Now()
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	doneAt := <-merged
	for i, at := range returned {
		if lag := at.Sub(doneAt); lag > 250*time.Millisecond {
			t.Errorf("worker %d returned %v after the run merged", i, lag.Round(time.Millisecond))
		}
	}
}

// TestLeaseExpiryStealByteIdentity kills a worker mid-run, in effect:
// worker A leases the whole space and vanishes; once the lease
// expires, worker B steals the chunk, re-runs it, and completes the
// run — still byte-identical. A's eventual late result is politely
// discarded (it is a byte-identical duplicate, so dropping it is
// safe).
func TestLeaseExpiryStealByteIdentity(t *testing.T) {
	job := testJob()
	cur := time.Unix(1700000000, 0)
	co, err := New(Config{
		Job: job, Expect: 1, MinChunk: 1 << 30, // one chunk: the whole space
		LeaseTTL: 10 * time.Second,
		now:      func() time.Time { return cur },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(co.queue) != 1 {
		t.Fatalf("want a single whole-space chunk, got %d", len(co.queue))
	}

	bg := context.Background()
	doomed := co.grant(bg, "doomed")
	if doomed.Lease == nil {
		t.Fatalf("no lease granted: %+v", doomed)
	}
	if doomed.Lease.Lo != 0 || doomed.Lease.Hi != co.total {
		t.Fatalf("whole-space lease is [%d,%d), want [0,%d)", doomed.Lease.Lo, doomed.Lease.Hi, co.total)
	}

	// Before the deadline the chunk is held: a second worker waits. A
	// cancelled context ends the request's hold at once.
	cancelled, cancel := context.WithCancel(bg)
	cancel()
	if resp := co.grant(cancelled, "thief"); !resp.Wait {
		t.Fatalf("chunk double-leased before expiry: %+v", resp)
	}

	cur = cur.Add(11 * time.Second) // past the TTL
	stolen := co.grant(bg, "thief")
	if stolen.Lease == nil {
		t.Fatalf("expired chunk not re-leased: %+v", stolen)
	}
	if stolen.Lease.ID == doomed.Lease.ID {
		t.Fatal("re-lease reused the expired lease ID")
	}

	// Execute the chunk once; the doomed worker's late copy is the same
	// bytes by the determinism contract.
	b := encode(t, chunkRun(t, job, *stolen.Lease))

	// The dead worker wakes up and posts against its expired,
	// re-leased chunk: discarded, not merged, not an error.
	late, err := co.accept(resultRequest{Worker: "doomed", LeaseID: doomed.Lease.ID, Run: b})
	if err != nil {
		t.Fatalf("late duplicate result rejected with an error: %v", err)
	}
	if !late.Discarded || late.OK {
		t.Fatalf("late duplicate result not discarded: %+v", late)
	}

	resp, err := co.accept(resultRequest{Worker: "thief", LeaseID: stolen.Lease.ID, BusyMS: 1, Run: b})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Done {
		t.Fatalf("whole-space chunk did not complete the run: %+v", resp)
	}
	waitDone(t, co)

	want := encodeSansPerf(t, serialRun(t, job))
	got := encodeSansPerf(t, co.Result())
	if !bytes.Equal(got, want) {
		t.Fatal("post-steal fleet run differs from serial run")
	}

	for _, m := range []struct {
		name string
		want float64
	}{
		{"fleet_leases_expired_total", 1},
		{"fleet_leases_stolen_total", 1},
		{"fleet_chunks_discarded_total", 1},
		{"fleet_chunks_merged_total", 1},
	} {
		if v := scrapeMetric(t, co, m.name); v != m.want {
			t.Errorf("%s = %v, want %v", m.name, v, m.want)
		}
	}

	// The fleet is over: the next poll (and any further result) says so.
	if resp := co.grant(bg, "straggler"); !resp.Done {
		t.Fatalf("post-completion lease poll: %+v", resp)
	}
	if resp, err := co.accept(resultRequest{Worker: "doomed", LeaseID: 99, Run: b}); err != nil || !resp.Done || !resp.Discarded {
		t.Fatalf("post-completion result: %+v, %v", resp, err)
	}
}

// TestAcceptLateResultForQueuedChunk covers the other expiry race:
// the lease expired and the chunk is back in the queue, but nobody
// has re-leased it yet. The late result is work already done — it is
// accepted and the queued copy dropped.
func TestAcceptLateResultForQueuedChunk(t *testing.T) {
	job := testJob()
	cur := time.Unix(1700000000, 0)
	co, err := New(Config{
		Job: job, Expect: 1, MinChunk: 1 << 30,
		LeaseTTL: 10 * time.Second,
		now:      func() time.Time { return cur },
	})
	if err != nil {
		t.Fatal(err)
	}
	l := co.grant(context.Background(), "slow")
	cur = cur.Add(11 * time.Second)
	co.mu.Lock()
	co.reapLocked(cur) // deadline passed: chunk requeued, lease gone
	queued := len(co.queue)
	co.mu.Unlock()
	if queued != 1 {
		t.Fatalf("expired chunk not requeued: %d queued", queued)
	}

	b := encode(t, chunkRun(t, job, *l.Lease))
	resp, err := co.accept(resultRequest{Worker: "slow", LeaseID: l.Lease.ID, BusyMS: 1, Run: b})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.OK || !resp.Done || resp.Discarded {
		t.Fatalf("late result for a still-queued chunk: %+v", resp)
	}
	if st := co.Status(); st.Queued != 0 {
		t.Fatalf("queued copy not dropped: %+v", st)
	}
}

// TestNewRejectsBadJobs pins that New validates a job exactly as every
// worker does (opts.Job.Resolve), before surveying: a job no worker
// would run must fail here, or the coordinator plans chunks that every
// worker refuses and the run never completes.
func TestNewRejectsBadJobs(t *testing.T) {
	with := func(change func(*JobSpec)) JobSpec {
		job := testJob()
		change(&job)
		return job
	}
	cases := []struct {
		name string
		job  JobSpec
		err  string // substring of New's error
	}{
		{"zero job", JobSpec{}, "bad scale"},
		{"empty job", JobSpec{Seed: 42, Scale: 1}, "scenario spec"},
		{"unknown experiment", with(func(j *JobSpec) { j.Experiment = "no-such-experiment" }), "unknown experiment"},
		{"all", with(func(j *JobSpec) { j.Experiment = "all" }), `"all"`},
		{"experiment and spec", with(func(j *JobSpec) { j.Scenario = []byte(`{"not":"a spec"}`) }), "not both"},
		{"scale 0", with(func(j *JobSpec) { j.Scale = 0 }), "bad scale"},
		{"scale -1", with(func(j *JobSpec) { j.Scale = -1 }), "bad scale"},
		{"scale NaN", with(func(j *JobSpec) { j.Scale = math.NaN() }), "bad scale"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			co, err := New(Config{Job: c.job})
			if err == nil {
				t.Fatalf("New accepted %+v and planned %d coordinates", c.job, co.total)
			}
			if !strings.Contains(err.Error(), c.err) {
				t.Fatalf("New err = %v, want containing %q", err, c.err)
			}
		})
	}
}

// scrapeMetric reads one un-labeled counter off the coordinator's
// /metrics endpoint.
func scrapeMetric(t *testing.T, co *Coordinator, name string) float64 {
	t.Helper()
	srv := httptest.NewServer(co.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name) + ` (\S+)$`)
	m := re.FindStringSubmatch(buf.String())
	if m == nil {
		t.Fatalf("metric %s not exposed", name)
	}
	v, err := strconv.ParseFloat(m[1], 64)
	if err != nil {
		t.Fatal(err)
	}
	return v
}
