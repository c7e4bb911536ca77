package sim

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// TestWakeIsACallbacksLastAction: a Wake is legal only as an event
// callback's one last action. A Wake from proc context (of a parked proc,
// of one on the driver stack, or of a new one), a second Wake in one
// callback, whether Run's goroutine or a driving proc runs it, and a
// callback that wakes the driver and another proc, in either order, each
// panic with a message that names the proc of the offending Wake.
func TestWakeIsACallbacksLastAction(t *testing.T) {
	parked := func(k *Kernel, id int, name string) *Proc {
		return k.Go(id, name, 0, func(p *Proc) {
			p.Park()
			t.Errorf("proc %s resumed", name)
		})
	}
	cases := []struct {
		name, want string // want: the proc the panic names
		setup      func(k *Kernel)
	}{
		{"from proc context", "x", func(k *Kernel) {
			x := parked(k, 0, "x")
			k.Go(1, "w", 0, func(p *Proc) {
				p.Sleep(10)
				x.Wake(1)
			})
		}},
		{"from proc context, of a stacked proc", "a", func(k *Kernel) {
			a := k.Go(0, "a", 0, func(p *Proc) {
				p.Sleep(10) // resumed by Run: a drives from here on
				p.Park()    // pops b's wake-up and resumes b
			})
			k.Go(1, "b", 0, func(p *Proc) {
				p.Sleep(20)
				if !a.stacked {
					t.Error("a is not on the driver stack")
				}
				a.Wake(1)
			})
		}},
		{"from proc context, of a new proc", "n", func(k *Kernel) {
			n := k.NewProc(0, "n", func(*Proc) { t.Error("proc n started") })
			k.Go(1, "w", 0, func(p *Proc) { n.Wake(0) })
		}},
		{"second Wake in a callback run by Run", "y", func(k *Kernel) {
			x, y := parked(k, 0, "x"), parked(k, 1, "y")
			k.Schedule(50, func() {
				x.Wake(1)
				y.Wake(2)
			})
		}},
		{"second Wake in a callback run by a driver", "y", func(k *Kernel) {
			x, y := parked(k, 0, "x"), parked(k, 1, "y")
			k.Go(2, "d", 0, func(p *Proc) {
				p.Sleep(10)
				p.Sleep(100) // executes the t=50 callback inside its park
			})
			k.Schedule(50, func() {
				x.Wake(1)
				y.Wake(2)
			})
		}},
		{"callback wakes another proc, then the driver", "d", func(k *Kernel) {
			x := parked(k, 0, "x")
			d := k.Go(1, "d", 0, func(p *Proc) {
				p.Sleep(10)
				p.Park() // executes the t=50 callback inside its park
			})
			k.Schedule(50, func() {
				x.Wake(1)
				d.Wake(2)
			})
		}},
		{"callback wakes the driver, then another proc", "x", func(k *Kernel) {
			x := parked(k, 0, "x")
			d := k.Go(1, "d", 0, func(p *Proc) {
				p.Sleep(10)
				p.Park() // executes the t=50 callback inside its park
			})
			k.Schedule(50, func() {
				d.Wake(2)
				x.Wake(1)
			})
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			k := NewKernel(1)
			tc.setup(k)
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, fmt.Sprintf("proc %q", tc.want)) || !strings.Contains(msg, "one last action") {
					t.Fatalf("Drain panicked with %q, want the one-last-action message naming %s", msg, tc.want)
				}
			}()
			k.Drain()
		})
	}
}

// TestResumeCounts pins Stats.Resumes: a handoff to a proc already on the
// driver stack costs no resume. Two procs that hand off to each other
// 2,000 times resume 1,002 times (two starts, the first of them Run's
// resume of the first driver, and one per handoff up the stack), and a
// ring of 8 procs with 8,000 handoffs 7,008 times (8 starts and 7 per
// round, the 8th handoff unwinding the stack).
func TestResumeCounts(t *testing.T) {
	for _, c := range []struct {
		procs int
		want  uint64
	}{{2, 1002}, {8, 7008}} {
		k := NewKernel(1)
		for i := 0; i < c.procs; i++ {
			k.Go(i, "p", Cycles(i), func(p *Proc) {
				for j := 0; j < 1000; j++ {
					p.Sleep(Cycles(c.procs))
				}
			})
		}
		before := GlobalStats().Resumes
		k.Drain()
		if got := GlobalStats().Resumes - before; got != c.want {
			t.Errorf("%d procs in round robin: %d resumes, want %d", c.procs, got, c.want)
		}
	}
}

// stackOp is one step of a proc's script.
type stackOp struct {
	kind int    // opSleep, opPark or opReturn
	d    Cycles // the delay
	tie  bool   // delay to the next multiple of tieQuantum instead of d
}

const (
	opSleep  = iota // Sleep
	opPark          // schedule a callback that tail-Wakes the proc, and Park
	opReturn        // return from the body
)

// tieQuantum aligns wake-ups, so that procs wake at equal instants.
const tieQuantum = 256

func (op stackOp) delay(now Cycles) Cycles {
	if op.tie {
		return tieQuantum - now%tieQuantum
	}
	return op.d
}

type procScript struct {
	start     Cycles
	tailStart bool // started by a callback's tail Wake, not by Go
	ops       []stackOp
}

// stackStep is one body step as it ran: the instant, the proc, the step.
type stackStep struct {
	at         Cycles
	proc, step int
}

// randomScripts builds 1–40 procs, started at equal instants by Go or by
// a callback's tail Wake, whose delays cover zero, short, equal instants,
// just inside and just past the calendar, and a deep-idle timer far past
// it.
func randomScripts(rng *rand.Rand) []procScript {
	sc := make([]procScript, 1+rng.Intn(40))
	for i := range sc {
		sc[i].start = Cycles(rng.Intn(4)) * 8
		sc[i].tailStart = rng.Intn(2) == 0
		sc[i].ops = make([]stackOp, 1+rng.Intn(30))
		for j := range sc[i].ops {
			op := &sc[i].ops[j]
			switch r := rng.Intn(20); {
			case r == 0:
				op.kind = opReturn
			case r < 7:
				op.kind = opPark
			}
			switch rng.Intn(6) {
			case 0:
			case 1:
				op.d = 1 + Cycles(rng.Intn(40))
			case 2:
				op.tie = true
			case 3:
				op.d = calendarSpan - 1 - Cycles(rng.Intn(bucketWidth))
			case 4:
				op.d = calendarSpan + Cycles(rng.Intn(bucketWidth))
			case 5:
				op.d = 600_000
			}
		}
	}
	return sc
}

// stackModel runs the scripts on a plain (time, seq) priority queue: each
// start (typed wake-up or callback), sleep and parking callback takes the
// next seq, and the least
// pending pair runs its proc's steps up to the next one that waits.
func stackModel(sc []procScript) []stackStep {
	type ev struct {
		at   Cycles
		seq  uint64
		proc int
	}
	var q []ev
	var seq uint64
	push := func(at Cycles, p int) {
		q = append(q, ev{at, seq, p})
		seq++
	}
	for i, s := range sc {
		push(s.start, i)
	}
	next := make([]int, len(sc))
	var trace []stackStep
	for len(q) > 0 {
		m := 0
		for i, e := range q {
			if e.at < q[m].at || e.at == q[m].at && e.seq < q[m].seq {
				m = i
			}
		}
		e := q[m]
		q = append(q[:m], q[m+1:]...)
		for ops := sc[e.proc].ops; next[e.proc] < len(ops); {
			j := next[e.proc]
			next[e.proc]++
			trace = append(trace, stackStep{e.at, e.proc, j})
			op := ops[j]
			if op.kind == opReturn {
				break
			}
			if d := op.delay(e.at); op.kind == opPark || d > 0 {
				push(e.at+d, e.proc)
				break
			}
		}
	}
	return trace
}

// tailWake is the parking callback, and a start: a Wake as its last
// action.
func tailWake(obj any, val, _ uint64) { obj.(*Proc).Wake(val) }

// runScripts runs the scripts on a kernel, under one Drain or, sliced,
// under Run(until) slices of random length with one proc calling Stop at a
// random step, then a Drain. After every Run no proc may be on the driver
// stack, and after the Drain every proc must be done.
func runScripts(t *testing.T, sc []procScript, slices *rand.Rand) []stackStep {
	k := NewKernel(1)
	var trace []stackStep
	stopProc, stopStep := -1, -1
	if slices != nil {
		stopProc = slices.Intn(len(sc))
		stopStep = slices.Intn(len(sc[stopProc].ops))
	}
	procs := make([]*Proc, len(sc))
	for i, s := range sc {
		body := func(p *Proc) {
			for j, op := range s.ops {
				trace = append(trace, stackStep{p.Now(), i, j})
				if i == stopProc && j == stopStep {
					k.Stop()
				}
				d := op.delay(p.Now())
				switch op.kind {
				case opReturn:
					return
				case opSleep:
					p.Sleep(d)
				case opPark:
					k.ScheduleCall(d, tailWake, p, uint64(j), 0)
					if v := p.Park(); v != uint64(j) {
						t.Errorf("proc %d step %d woke with %d", i, j, v)
					}
				}
			}
		}
		if s.tailStart {
			procs[i] = k.NewProc(i, fmt.Sprint("p", i), body)
			k.ScheduleCall(s.start, tailWake, procs[i], 0, 0)
		} else {
			procs[i] = k.Go(i, fmt.Sprint("p", i), s.start, body)
		}
	}
	unstacked := func() {
		t.Helper()
		for _, p := range procs {
			if p.stacked {
				t.Fatalf("proc %s is on the driver stack after Run returned at %d", p.Name(), k.Now())
			}
		}
		if k.handoffTo != nil || k.deferred != nil {
			t.Fatalf("Run returned with handoffTo %v, deferred %v", k.handoffTo, k.deferred)
		}
	}
	if slices != nil {
		for until := Cycles(0); k.Pending() > 0; {
			until += 1 + Cycles(slices.Intn(200_000))
			k.Run(until)
			unstacked()
		}
	}
	k.Drain()
	unstacked()
	for _, p := range procs {
		if !p.Done() {
			t.Fatalf("proc %s is %v after Drain", p.Name(), p.State())
		}
	}
	return trace
}

// TestDriverStackMatchesHeapModel drives seeded random scripts of sleeps,
// parks woken by a tail Wake and early returns through the driver stack,
// in procs started by Go or, as sched's dispatch starts a thread, by a
// callback's tail Wake.
// The body steps, as (instant, proc, step), must run in the order a plain
// (time, seq) queue gives, under one Drain and under Run(until) slices
// with a Stop alike, and Drain must leave no proc goroutine behind.
func TestDriverStackMatchesHeapModel(t *testing.T) {
	seeds := 200
	if raceDetector {
		seeds = 10
	}
	before := procGoroutines()
	for seed := int64(0); seed < int64(seeds); seed++ {
		rng := rand.New(rand.NewSource(seed))
		sc := randomScripts(rng)
		want := stackModel(sc)
		for _, slices := range []*rand.Rand{nil, rng} {
			got := runScripts(t, sc, slices)
			if len(got) != len(want) {
				t.Fatalf("seed %d, sliced %v: %d steps, want %d", seed, slices != nil, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("seed %d, sliced %v: step %d is %+v, want %+v", seed, slices != nil, i, got[i], want[i])
				}
			}
		}
	}
	if got := procGoroutines(); got != before {
		t.Errorf("%d proc goroutines after the runs, want %d", got, before)
	}
}
