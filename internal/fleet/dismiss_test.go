package fleet

import (
	"context"
	"sync/atomic"
	"testing"
	"time"
)

// dismissed reports whether co.Dismissed is closed.
func dismissed(co *Coordinator) bool {
	select {
	case <-co.Dismissed():
		return true
	default:
		return false
	}
}

// leaseTo leases the next chunk to worker, failing the test if there is
// none.
func leaseTo(t *testing.T, co *Coordinator, worker string) Lease {
	t.Helper()
	resp := co.grant(context.Background(), worker)
	if resp.Lease == nil {
		t.Fatalf("no lease for %s: %+v", worker, resp)
	}
	return *resp.Lease
}

// TestDismissedWaitsForAWorkerBetweenChunks replays the exit race of a
// two-worker fleet: w1's chunk merges while the run is still open, w2's
// chunk completes it, and only then does w1 ask for its next lease. The
// run is done before w1 has heard so; Dismissed must stay open until w1
// is answered done, or the coordinator stops listening under it.
func TestDismissedWaitsForAWorkerBetweenChunks(t *testing.T) {
	job := testJob()
	co, err := New(Config{Job: job, Expect: 1})
	if err != nil {
		t.Fatal(err)
	}
	l1, l2 := leaseTo(t, co, "w1"), leaseTo(t, co, "w2")
	r1, err := co.accept(resultRequest{Worker: "w1", LeaseID: l1.ID, Run: encode(t, chunkRun(t, job, l1))})
	if err != nil || !r1.OK || r1.Done {
		t.Fatalf("w1's chunk: %+v, %v; want merged with the run open", r1, err)
	}
	r2, err := co.accept(resultRequest{Worker: "w2", LeaseID: l2.ID, Run: encode(t, chunkRun(t, job, l2))})
	if err != nil || !r2.Done {
		t.Fatalf("w2's chunk: %+v, %v; want it to complete the run", r2, err)
	}
	waitDone(t, co)
	if dismissed(co) {
		t.Fatal("Dismissed closed before w1 heard done")
	}
	if resp := co.grant(context.Background(), "w1"); !resp.Done {
		t.Fatalf("w1's lease request after the run merged: %+v, want done", resp)
	}
	if !dismissed(co) {
		t.Fatal("Dismissed still open after every worker heard done")
	}
}

// TestDismissedCountsResultResponses: a worker can also hear done in
// the answer to a late result. w1's lease expires, w2 steals the chunk
// and completes the run; w1's late copy of the chunk is answered done,
// and that dismisses w1.
func TestDismissedCountsResultResponses(t *testing.T) {
	job := testJob()
	var clock atomic.Int64
	co, err := New(Config{Job: job, Expect: 1, now: func() time.Time { return time.Unix(0, clock.Load()) }})
	if err != nil {
		t.Fatal(err)
	}
	l1, l2 := leaseTo(t, co, "w1"), leaseTo(t, co, "w2")
	if r, err := co.accept(resultRequest{Worker: "w2", LeaseID: l2.ID, Run: encode(t, chunkRun(t, job, l2))}); err != nil || r.Done {
		t.Fatalf("w2's chunk: %+v, %v; want merged with the run open", r, err)
	}
	clock.Add(int64(co.cfg.LeaseTTL)) // w1's lease is due
	stolen := leaseTo(t, co, "w2")
	if stolen.Lo != l1.Lo || stolen.Hi != l1.Hi {
		t.Fatalf("w2 leased [%d,%d), want w1's expired [%d,%d)", stolen.Lo, stolen.Hi, l1.Lo, l1.Hi)
	}
	b := encode(t, chunkRun(t, job, l1))
	if r, err := co.accept(resultRequest{Worker: "w2", LeaseID: stolen.ID, Run: b}); err != nil || !r.Done {
		t.Fatalf("w2's stolen chunk: %+v, %v; want it to complete the run", r, err)
	}
	if dismissed(co) {
		t.Fatal("Dismissed closed before w1 heard done")
	}
	if r, err := co.accept(resultRequest{Worker: "w1", LeaseID: l1.ID, Run: b}); err != nil || !r.Done {
		t.Fatalf("w1's late chunk: %+v, %v; want done", r, err)
	}
	if !dismissed(co) {
		t.Fatal("Dismissed still open after every worker heard done")
	}
}
