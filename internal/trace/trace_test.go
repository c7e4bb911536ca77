package trace

import (
	"strings"
	"testing"
	"testing/quick"

	"lockin/internal/sim"
)

func TestRecorderBasics(t *testing.T) {
	r := NewRecorder(4)
	if r.Len() != 0 {
		t.Fatal("fresh recorder not empty")
	}
	r.Record(Event{At: 10, Thread: 0, Kind: AcquireStart, Label: "l"})
	r.Record(Event{At: 20, Thread: 0, Kind: Acquired, Label: "l"})
	if r.Len() != 2 {
		t.Fatalf("len %d", r.Len())
	}
	evs := r.Events()
	if evs[0].At != 10 || evs[1].At != 20 {
		t.Fatalf("order wrong: %v", evs)
	}
}

func TestRecorderRingWrap(t *testing.T) {
	r := NewRecorder(3)
	for i := 1; i <= 5; i++ {
		r.Record(Event{At: sim.Cycles(i * 10), Thread: i, Kind: Custom})
	}
	evs := r.Events()
	if len(evs) != 3 {
		t.Fatalf("retained %d, want 3", len(evs))
	}
	// Oldest two dropped; chronological order preserved.
	if evs[0].At != 30 || evs[2].At != 50 {
		t.Fatalf("wrap order wrong: %v", evs)
	}
}

func TestHoldTimes(t *testing.T) {
	r := NewRecorder(16)
	r.Record(Event{At: 100, Thread: 1, Kind: AcquireStart})
	r.Record(Event{At: 150, Thread: 1, Kind: Acquired})
	r.Record(Event{At: 450, Thread: 1, Kind: Released})
	r.Record(Event{At: 200, Thread: 2, Kind: AcquireStart})
	r.Record(Event{At: 460, Thread: 2, Kind: Acquired})
	r.Record(Event{At: 700, Thread: 2, Kind: Released})
	holds := r.HoldTimes()
	if len(holds) != 2 || holds[0] != 300 || holds[1] != 240 {
		t.Fatalf("hold times %v", holds)
	}
}

func TestCountByKind(t *testing.T) {
	r := NewRecorder(8)
	for i := 0; i < 3; i++ {
		r.Record(Event{At: sim.Cycles(i), Kind: Acquired})
	}
	r.Record(Event{At: 9, Kind: Released})
	counts := r.CountByKind()
	if counts[Acquired] != 3 || counts[Released] != 1 {
		t.Fatalf("counts %v", counts)
	}
}

func TestRender(t *testing.T) {
	r := NewRecorder(8)
	r.Record(Event{At: 5, Thread: 2, Kind: SleepStart, Label: "mutex"})
	r.Record(Event{At: 9, Thread: 2, Kind: Woken, Label: "mutex"})
	out := r.Render(0)
	for _, want := range []string{"sleep", "woken", "mutex", "t2"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
	if lim := r.Render(1); strings.Contains(lim, "sleep") {
		t.Fatalf("render limit not applied:\n%s", lim)
	}
	for k := Kind(0); k <= Custom; k++ {
		if k.String() == "" {
			t.Fatal("empty kind name")
		}
	}
	if Kind(99).String() != "Kind(99)" {
		t.Fatal("out-of-range kind")
	}
}

func TestRingChronologyProperty(t *testing.T) {
	// Property: regardless of capacity and volume, Events() is in
	// non-decreasing timestamp order when input was.
	f := func(capSeed uint8, n uint8) bool {
		r := NewRecorder(int(capSeed%32) + 1)
		for i := 0; i < int(n); i++ {
			r.Record(Event{At: sim.Cycles(i * 7), Thread: i})
		}
		evs := r.Events()
		for i := 1; i < len(evs); i++ {
			if evs[i].At < evs[i-1].At {
				return false
			}
		}
		return len(evs) <= int(capSeed%32)+1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestZeroCapacityDefaults(t *testing.T) {
	r := NewRecorder(0)
	for i := 0; i < 2000; i++ {
		r.Record(Event{At: sim.Cycles(i)})
	}
	if r.Len() != 1024 {
		t.Fatalf("default capacity: %d", r.Len())
	}
}
