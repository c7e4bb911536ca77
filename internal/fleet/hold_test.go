package fleet

import (
	"context"
	"sync/atomic"
	"testing"
	"time"
)

type heldAnswer struct {
	resp    leaseResponse
	elapsed time.Duration
}

// holdGrant sends a lease request from worker "idle" in the background.
func holdGrant(ctx context.Context, co *Coordinator) <-chan heldAnswer {
	ch := make(chan heldAnswer, 1)
	start := time.Now()
	go func() {
		resp := co.grant(ctx, "idle")
		ch <- heldAnswer{resp, time.Since(start)}
	}()
	return ch
}

// awaitHeld waits until a lease request is blocked in grant.
func awaitHeld(t *testing.T, co *Coordinator) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		co.mu.Lock()
		held := co.held
		co.mu.Unlock()
		if held > 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("lease request never held")
		}
	}
}

// answer waits for a held lease request's answer.
func answer(t *testing.T, ch <-chan heldAnswer) heldAnswer {
	t.Helper()
	select {
	case a := <-ch:
		return a
	case <-time.After(10 * time.Second):
		t.Fatal("held lease request never answered")
		return heldAnswer{}
	}
}

// promptly fails the test unless a held request was answered well
// inside its hold, i.e. by a wake and not by the hold running out.
func promptly(t *testing.T, co *Coordinator, a heldAnswer) {
	t.Helper()
	if bound := maxHold(co.cfg.LeaseTTL) / 2; a.elapsed > bound {
		t.Errorf("held request answered after %v, want within %v", a.elapsed.Round(time.Millisecond), bound)
	}
}

// wholeSpaceLeased returns a coordinator whose only chunk, the whole
// cell space, is leased to worker "busy", so any other lease request
// has nothing to get.
func wholeSpaceLeased(t *testing.T, cfg Config) (*Coordinator, Lease) {
	t.Helper()
	cfg.Job, cfg.Expect, cfg.minChunk = testJob(), 1, 1<<30
	co, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	resp := co.grant(context.Background(), "busy")
	if resp.Lease == nil {
		t.Fatalf("no lease for the whole space: %+v", resp)
	}
	return co, *resp.Lease
}

// TestHeldGrantHearsDone: a request held while the only chunk is out
// answers done as soon as another goroutine merges the run.
func TestHeldGrantHearsDone(t *testing.T) {
	co, l := wholeSpaceLeased(t, Config{})
	b := encode(t, chunkRun(t, testJob(), l))
	held := holdGrant(context.Background(), co)
	awaitHeld(t, co)
	resp, err := co.accept(resultRequest{Worker: "busy", LeaseID: l.ID, Run: b})
	if err != nil || !resp.Done {
		t.Fatalf("whole-space result: %+v, %v", resp, err)
	}
	a := answer(t, held)
	if !a.resp.Done {
		t.Fatalf("held request after the run merged: %+v", a.resp)
	}
	promptly(t, co, a)
}

// twoChunksLeased returns a coordinator that cut the space into two
// chunks and leased both to worker "busy", in cell order.
func twoChunksLeased(t *testing.T, cfg Config) (*Coordinator, [2]Lease) {
	t.Helper()
	cfg.Job, cfg.Expect = testJob(), 1
	co, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(co.queue) != 2 {
		t.Fatalf("want two chunks, got %d", len(co.queue))
	}
	var leases [2]Lease
	for i := range leases {
		resp := co.grant(context.Background(), "busy")
		if resp.Lease == nil {
			t.Fatalf("chunk %d not leased: %+v", i, resp)
		}
		leases[i] = *resp.Lease
	}
	if leases[0].Lo > leases[1].Lo {
		leases[0], leases[1] = leases[1], leases[0]
	}
	return co, leases
}

// TestHeldGrantHearsRequeue: a chunk whose result refuses to merge goes
// back to the queue, and a held request leases it at once.
func TestHeldGrantHearsRequeue(t *testing.T) {
	job := testJob()
	co, leases := twoChunksLeased(t, Config{})
	first, err := co.accept(resultRequest{Worker: "busy", LeaseID: leases[0].ID,
		Run: encode(t, chunkRun(t, job, leases[0]))})
	if err != nil || !first.OK || first.Done {
		t.Fatalf("first chunk: %+v, %v", first, err)
	}
	// A second chunk produced under another seed cannot merge with the
	// first.
	stale := chunkRun(t, job, leases[1])
	stale.Meta.Seed++
	b := encode(t, stale)

	held := holdGrant(context.Background(), co)
	awaitHeld(t, co)
	if _, err := co.accept(resultRequest{Worker: "busy", LeaseID: leases[1].ID, Run: b}); err == nil {
		t.Fatal("a chunk from another seed merged")
	}
	a := answer(t, held)
	if got := a.resp.Lease; got == nil || got.Lo != leases[1].Lo || got.Hi != leases[1].Hi {
		t.Fatalf("held request after the requeue: %+v, want a lease on [%d,%d)", a.resp, leases[1].Lo, leases[1].Hi)
	}
	promptly(t, co, a)
}

// TestHeldGrantHearsReap: when one request reaps two expired leases and
// takes one chunk, a request already held takes the other at once.
func TestHeldGrantHearsReap(t *testing.T) {
	var clock atomic.Int64
	co, _ := twoChunksLeased(t, Config{now: func() time.Time { return time.Unix(0, clock.Load()) }})
	held := holdGrant(context.Background(), co)
	awaitHeld(t, co)
	clock.Add(int64(co.cfg.LeaseTTL)) // both leases are due
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if resp := co.grant(cancelled, "thief"); resp.Lease == nil {
		t.Fatalf("expired chunk not re-leased: %+v", resp)
	}
	a := answer(t, held)
	if a.resp.Lease == nil {
		t.Fatalf("held request after the reap: %+v, want the other chunk", a.resp)
	}
	promptly(t, co, a)
}

// TestHeldGrantWaitsOutItsHold: with nothing changing, a held request
// answers wait once its hold runs out. The clock is frozen, so the
// outstanding lease never expires.
func TestHeldGrantWaitsOutItsHold(t *testing.T) {
	frozen := time.Unix(1700000000, 0)
	ttl := 400 * time.Millisecond
	co, _ := wholeSpaceLeased(t, Config{LeaseTTL: ttl, now: func() time.Time { return frozen }})
	a := answer(t, holdGrant(context.Background(), co))
	if !a.resp.Wait {
		t.Fatalf("request held with nothing to hand out: %+v", a.resp)
	}
	if hold := maxHold(ttl); a.elapsed < hold {
		t.Errorf("answered wait after %v, before its %v hold ran out", a.elapsed, hold)
	}
}

// TestHeldGrantEndsWithItsContext: a worker that hangs up ends its
// request's hold at once.
func TestHeldGrantEndsWithItsContext(t *testing.T) {
	co, _ := wholeSpaceLeased(t, Config{})
	ctx, cancel := context.WithCancel(context.Background())
	held := holdGrant(ctx, co)
	awaitHeld(t, co)
	if v := scrapeMetric(t, co, "fleet_lease_requests_held"); v != 1 {
		t.Errorf("fleet_lease_requests_held = %v with one request held", v)
	}
	cancel()
	a := answer(t, held)
	if !a.resp.Wait {
		t.Fatalf("held request after its context ended: %+v", a.resp)
	}
	promptly(t, co, a)
}
