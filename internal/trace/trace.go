// Package trace provides a lightweight event timeline for simulated
// lock executions: a bounded ring of typed events (acquire, release,
// sleep, wake, contention) with timestamps in simulated cycles, query
// helpers, and a text rendering for debugging lock behaviour.
//
// Tracing is opt-in: wrap any core.Lock with core.NewTraced and inspect
// the recorder afterwards. The ring is bounded so long experiments can
// keep tracing on without unbounded memory growth.
package trace

import (
	"fmt"
	"strings"

	"lockin/internal/sim"
)

// Kind classifies a trace event.
type Kind int

const (
	// AcquireStart: a thread began a lock acquisition.
	AcquireStart Kind = iota
	// Acquired: the thread obtained the lock.
	Acquired
	// Released: the thread released the lock.
	Released
	// SleepStart: the thread went to sleep on a futex.
	SleepStart
	// Woken: the thread was woken.
	Woken
	// Custom: free-form annotation.
	Custom
)

var kindNames = [...]string{"acquire-start", "acquired", "released", "sleep", "woken", "note"}

func (k Kind) String() string {
	if k < 0 || int(k) >= len(kindNames) {
		return fmt.Sprintf("Kind(%d)", int(k))
	}
	return kindNames[k]
}

// Event is one timeline entry.
type Event struct {
	At     sim.Cycles
	Thread int
	Kind   Kind
	Label  string // lock name or annotation
}

func (e Event) String() string {
	return fmt.Sprintf("%12d  t%-3d  %-13s %s", e.At, e.Thread, e.Kind, e.Label)
}

// Recorder is a bounded ring of events. The zero value is unusable;
// create with NewRecorder.
type Recorder struct {
	ring    []Event
	next    int
	wrapped bool
}

// NewRecorder creates a recorder holding up to capacity events (older
// events are overwritten once full).
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = 1024
	}
	return &Recorder{ring: make([]Event, 0, capacity)}
}

// Record appends an event.
func (r *Recorder) Record(e Event) {
	if len(r.ring) < cap(r.ring) {
		r.ring = append(r.ring, e)
		return
	}
	r.ring[r.next] = e
	r.next = (r.next + 1) % cap(r.ring)
	r.wrapped = true
}

// Len returns the number of retained events.
func (r *Recorder) Len() int { return len(r.ring) }

// Events returns the retained events in chronological order.
func (r *Recorder) Events() []Event {
	if !r.wrapped {
		out := make([]Event, len(r.ring))
		copy(out, r.ring)
		return out
	}
	out := make([]Event, 0, len(r.ring))
	out = append(out, r.ring[r.next:]...)
	out = append(out, r.ring[:r.next]...)
	return out
}

// CountByKind tallies retained events per kind.
func (r *Recorder) CountByKind() map[Kind]int {
	out := make(map[Kind]int)
	for _, e := range r.Events() {
		out[e.Kind]++
	}
	return out
}

// HoldTimes pairs Acquired/Released events per thread and returns the
// critical-section durations, in order of release.
func (r *Recorder) HoldTimes() []sim.Cycles {
	open := map[int]sim.Cycles{}
	var out []sim.Cycles
	for _, e := range r.Events() {
		switch e.Kind {
		case Acquired:
			open[e.Thread] = e.At
		case Released:
			if at, ok := open[e.Thread]; ok {
				out = append(out, e.At-at)
				delete(open, e.Thread)
			}
		}
	}
	return out
}

// Render returns the timeline as text, one event per line (bounded by
// max lines; 0 = all).
func (r *Recorder) Render(max int) string {
	events := r.Events()
	if max > 0 && len(events) > max {
		events = events[len(events)-max:]
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%12s  %-4s  %-13s %s\n", "cycle", "thr", "event", "label")
	for _, e := range events {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return b.String()
}
