package sim

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// TestSyncWakeOfStackedProcPanics: a proc on the driver stack waits
// inside its own resume of another proc, so a synchronous Wake cannot
// resume it; the Wake panics with a message that names the proc.
func TestSyncWakeOfStackedProcPanics(t *testing.T) {
	k := NewKernel(1)
	var a *Proc
	a = k.Go(0, "a", 0, func(p *Proc) {
		p.Sleep(10) // resumed by Run: a drives from here on
		p.Park()    // pops b's wake-up and resumes b
		t.Error("a resumed after b woke it synchronously")
	})
	k.Go(1, "b", 0, func(p *Proc) {
		p.Sleep(20)
		a.Wake(1)
		t.Error("Wake of a stacked proc returned")
	})
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, `proc "a"`) || !strings.Contains(msg, "driver stack") {
			t.Fatalf("Run panicked with %q, want the stacked-proc message naming a", msg)
		}
	}()
	k.Drain()
}

// TestDoubleWakes covers the two paths that deliver two wakes from one
// callback, whether Run's goroutine or a driving proc executes it. The
// targets are parked, not on the driver stack. A second wake runs the
// first-woken proc to its next park at once and defers the second; a
// callback that wakes another proc and the driver runs the other proc
// first, then resumes the driver.
func TestDoubleWakes(t *testing.T) {
	for _, byDriver := range []bool{false, true} {
		t.Run(fmt.Sprintf("second wake from one callback/by driver %v", byDriver), func(t *testing.T) {
			k := NewKernel(1)
			var order []string
			parker := func(name string, want uint64) func(*Proc) {
				return func(p *Proc) {
					if v := p.Park(); v != want {
						t.Errorf("%s woke with %d, want %d", name, v, want)
					}
					order = append(order, name)
				}
			}
			x := k.Go(0, "x", 0, parker("x", 1))
			y := k.Go(1, "y", 0, parker("y", 2))
			if byDriver {
				k.Go(2, "d", 0, func(p *Proc) {
					p.Sleep(10)
					p.Sleep(100) // executes the t=50 callback inside its park
					order = append(order, "d")
				})
			}
			k.Schedule(50, func() {
				x.Wake(1)
				y.Wake(2)
				order = append(order, "callback")
			})
			k.Drain()
			want := "x callback y"
			if byDriver {
				want += " d"
			}
			if got := strings.Join(order, " "); got != want {
				t.Fatalf("order %q, want %q", got, want)
			}
		})
	}
	t.Run("callback wakes another proc and the driver", func(t *testing.T) {
		k := NewKernel(1)
		var order []string
		x := k.Go(0, "x", 0, func(p *Proc) {
			if v := p.Park(); v != 1 {
				t.Errorf("x woke with %d, want 1", v)
			}
			order = append(order, "x")
		})
		var d *Proc
		d = k.Go(1, "d", 0, func(p *Proc) {
			p.Sleep(10)
			if v := p.Park(); v != 2 { // executes the t=50 callback inside its park
				t.Errorf("d woke with %d, want 2", v)
			}
			order = append(order, "d")
		})
		k.Schedule(50, func() {
			x.Wake(1)
			d.Wake(2)
			order = append(order, "callback")
		})
		k.Drain()
		if got, want := strings.Join(order, " "), "callback x d"; got != want {
			t.Fatalf("order %q, want %q", got, want)
		}
	})
}

// TestResumeCounts pins Stats.Resumes: a handoff to a proc already on the
// driver stack costs no resume. Two procs that hand off to each other
// 2,000 times resume 1,003 times (two Starts, Run's resume of the first
// driver, and one per handoff up the stack), and a ring of 8 procs with
// 8,000 handoffs 7,009 times (8 Starts, Run's, and 7 per round, the 8th
// handoff unwinding the stack).
func TestResumeCounts(t *testing.T) {
	for _, c := range []struct {
		procs int
		want  uint64
	}{{2, 1003}, {8, 7009}} {
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
	start Cycles
	ops   []stackOp
}

// stackStep is one body step as it ran: the instant, the proc, the step.
type stackStep struct {
	at         Cycles
	proc, step int
}

// randomScripts builds 1–40 procs whose delays cover zero, short, equal
// instants, just inside and just past the calendar, and a deep-idle timer
// far past it.
func randomScripts(rng *rand.Rand) []procScript {
	sc := make([]procScript, 1+rng.Intn(40))
	for i := range sc {
		sc[i].start = Cycles(rng.Intn(4)) * 8
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
// start, sleep and parking callback takes the next seq, and the least
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

// tailWake is the parking callback: a Wake as its last action.
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
		procs[i] = k.Go(i, fmt.Sprint("p", i), s.start, func(p *Proc) {
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
		})
	}
	unstacked := func() {
		t.Helper()
		for _, p := range procs {
			if p.stacked {
				t.Fatalf("proc %s is on the driver stack after Run returned at %d", p.Name(), k.Now())
			}
		}
		if k.handoffTo != nil || k.driver != nil {
			t.Fatalf("Run returned with handoffTo %v, driver %v", k.handoffTo, k.driver)
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
// parks woken by a tail Wake and early returns through the driver stack.
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
