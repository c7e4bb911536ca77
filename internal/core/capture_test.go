package core

import (
	"testing"

	"lockin/internal/machine"
	"lockin/internal/trace"
)

// TestCaptureTracesWrapsNew checks the -trace plumbing: arming capture
// makes New hand out recorder-wrapped locks, the recorders see the
// acquire/release timeline, and disarming restores plain construction.
func TestCaptureTracesWrapsNew(t *testing.T) {
	m := machine.NewDefault(1)

	stop := CaptureTraces(128)
	l := New(m, KindTicket)
	if _, ok := l.(*Traced); !ok {
		t.Fatalf("armed New returned %T, want *Traced", l)
	}
	m.Spawn("w", func(th *machine.Thread) {
		for i := 0; i < 5; i++ {
			l.Lock(th)
			th.Compute(100)
			l.Unlock(th)
		}
	})
	m.K.Drain()

	recs := stop()
	if len(recs) != 1 {
		t.Fatalf("captured %d recorders, want 1", len(recs))
	}
	counts := recs[0].CountByKind()
	if counts[trace.Acquired] != 5 || counts[trace.Released] != 5 {
		t.Errorf("recorder counts = %v, want 5 acquired / 5 released", counts)
	}

	// Disarmed again: plain locks, and a second stop-cycle starts empty.
	if l := New(m, KindTicket); l.Name() != "TICKET" {
		t.Errorf("disarmed New returned %q, want plain TICKET", l.Name())
	}
	if recs := CaptureTraces(8)(); len(recs) != 0 {
		t.Errorf("fresh capture window returned %d recorders, want 0", len(recs))
	}
}

// TestCaptureTracesWrapsEveryCatalogueLock: while capture is armed,
// every catalogue entry built by name comes back wrapped, as do the
// MUTEXEE variants MutexeeWith builds.
func TestCaptureTracesWrapsEveryCatalogueLock(t *testing.T) {
	m := machine.NewDefault(1)
	stop := CaptureTraces(8)
	built := 0
	for k := Kind(0); int(k) < len(catalogue); k++ {
		got, err := ParseKind(k.String())
		if err != nil {
			t.Fatal(err)
		}
		if l := New(m, got); !isTraced(l) {
			t.Errorf("armed New(%v) returned %T, want *Traced", k, l)
		}
		built++
	}
	timeout := MutexeeWith(func(o *MutexeeOptions) { o.Timeout = 1000 })
	if l := timeout(m); !isTraced(l) {
		t.Errorf("armed MutexeeWith returned %T, want *Traced", l)
	}
	built++
	if recs := stop(); len(recs) != built {
		t.Errorf("captured %d recorders, want %d", len(recs), built)
	}
}

func isTraced(l Lock) bool {
	_, ok := l.(*Traced)
	return ok
}
