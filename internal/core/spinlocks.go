package core

import (
	"sync"

	"lockin/internal/coherence"
	"lockin/internal/machine"
)

// TAS is the test-and-set lock: every waiter polls the lock word with
// atomic exchanges (global spinning). Under contention the release itself
// must win the line against the pollers, which is why TAS collapses first
// in the paper's Figure 11.
type TAS struct {
	m    *machine.Machine
	line *coherence.Line
}

// NewTAS creates a test-and-set lock.
func NewTAS(m *machine.Machine) *TAS {
	return &TAS{m: m, line: m.NewLine("tas")}
}

// Name implements Lock.
func (l *TAS) Name() string { return "TAS" }

// Lock implements Lock: exchange 1 into the word until the old value
// was 0, polling it with atomics in between.
func (l *TAS) Lock(t *machine.Thread) {
	t.SpinAcquire(l.line, swapOne, machine.WaitGlobal)
}

// Unlock implements Lock.
func (l *TAS) Unlock(t *machine.Thread) { t.Store(l.line, 0) }

func isZero(v uint64) bool { return v == 0 }

// swapOne is TAS's attempt, an exchange that sets the word.
func swapOne(uint64) (uint64, bool) { return 1, true }

// casOne is TTAS's attempt, a compare-and-swap of 0 for 1.
func casOne(v uint64) (uint64, bool) { return 1, v == 0 }

// TTAS is test-and-test-and-set: waiters spin locally on a shared copy of
// the line and only attempt the atomic when the lock looks free.
type TTAS struct {
	m    *machine.Machine
	line *coherence.Line
	pol  machine.WaitPolicy
}

// NewTTAS creates a test-and-test-and-set lock with the given pausing
// technique for its local spin loop.
func NewTTAS(m *machine.Machine, pol machine.WaitPolicy) *TTAS {
	return &TTAS{m: m, line: m.NewLine("ttas"), pol: pol}
}

// Name implements Lock.
func (l *TTAS) Name() string { return "TTAS" }

// Lock implements Lock: compare-and-swap the word from 0 to 1, and
// while that fails, spin locally until it reads 0.
func (l *TTAS) Lock(t *machine.Thread) {
	t.SpinAcquire(l.line, casOne, l.pol)
}

// Unlock implements Lock.
func (l *TTAS) Unlock(t *machine.Thread) { t.Store(l.line, 0) }

// Ticket is the FIFO ticket lock: a fetch-and-add draws a ticket, waiters
// spin locally until the now-serving counter reaches it. Strict fairness
// is what makes it melt under oversubscription (§6: MySQL, SQLite).
type Ticket struct {
	m    *machine.Machine
	line *coherence.Line // high 32 bits: next ticket; low 32: now serving
	pol  machine.WaitPolicy
}

// NewTicket creates a ticket lock with the given pausing technique.
// The paper's version pauses with a memory barrier; the TICKET-with-pause
// variant consumes ≈4 W more (§5.2).
func NewTicket(m *machine.Machine, pol machine.WaitPolicy) *Ticket {
	return &Ticket{m: m, line: m.NewLine("ticket"), pol: pol}
}

// Name implements Lock: TICKET-PAUSE for the variant that pauses with
// pause, TICKET otherwise.
func (l *Ticket) Name() string {
	if l.pol == machine.WaitPause {
		return "TICKET-PAUSE"
	}
	return "TICKET"
}

// Lock implements Lock.
func (l *Ticket) Lock(t *machine.Thread) {
	old := t.FetchAdd(l.line, 1<<32)
	my := old >> 32
	if old&0xffffffff == my {
		return // uncontested
	}
	t.SpinUntil(l.line, func(v uint64) bool { return v&0xffffffff == my }, l.pol)
}

// Unlock implements Lock.
func (l *Ticket) Unlock(t *machine.Thread) {
	// Only the holder updates now-serving, so a plain store suffices; the
	// fetch-add keeps the model's single-word atomicity simple.
	t.FetchAdd(l.line, 1)
}

// qnode is an MCS queue node: one line the owner spins on, one for the
// successor pointer. Nodes are per (lock, thread).
type qnode struct {
	locked *coherence.Line
	next   *coherence.Line // successor thread id + 1; 0 = none
}

// MCS is the Mellor-Crummey–Scott queue lock: waiters enqueue with a swap
// on the tail and spin on their own node, so a release touches exactly
// one waiter's line — no invalidation burst.
type MCS struct {
	m    *machine.Machine
	tail *coherence.Line // waiting-queue tail: thread id + 1; 0 = empty
	pol  machine.WaitPolicy

	mu    sync.Mutex
	nodes map[int]*qnode
}

// NewMCS creates an MCS queue lock.
func NewMCS(m *machine.Machine, pol machine.WaitPolicy) *MCS {
	return &MCS{m: m, tail: m.NewLine("mcs.tail"), pol: pol, nodes: make(map[int]*qnode)}
}

// Name implements Lock.
func (l *MCS) Name() string { return "MCS" }

func (l *MCS) node(id int) *qnode {
	l.mu.Lock()
	defer l.mu.Unlock()
	n, ok := l.nodes[id]
	if !ok {
		n = &qnode{
			locked: l.m.NewLine("mcs.locked"),
			next:   l.m.NewLine("mcs.next"),
		}
		l.nodes[id] = n
	}
	return n
}

// Lock implements Lock.
func (l *MCS) Lock(t *machine.Thread) {
	me := l.node(t.ID())
	t.Compute(40) // locate the per-(lock,thread) queue node
	t.Store(me.next, 0)
	t.Store(me.locked, 1)
	prev := t.Swap(l.tail, uint64(t.ID())+1)
	if prev == 0 {
		return
	}
	pred := l.node(int(prev - 1))
	t.Store(pred.next, uint64(t.ID())+1)
	t.SpinUntil(me.locked, isZero, l.pol)
}

// Unlock implements Lock.
func (l *MCS) Unlock(t *machine.Thread) {
	me := l.node(t.ID())
	t.Compute(40) // locate the queue node again
	if t.Load(me.next) == 0 {
		if t.CAS(l.tail, uint64(t.ID())+1, 0) {
			return
		}
		// A successor is enqueueing: wait for its link.
		t.SpinUntil(me.next, func(v uint64) bool { return v != 0 }, l.pol)
	}
	succ := l.node(int(t.Load(me.next) - 1))
	t.Store(succ.locked, 0)
}

// CLH is the Craig–Landin–Hagersten queue lock: an implicit queue where
// each waiter spins on its predecessor's node; nodes are recycled between
// acquisitions.
type CLH struct {
	m    *machine.Machine
	tail *coherence.Line // current tail node id + 1
	pol  machine.WaitPolicy

	mu    sync.Mutex
	lines []*coherence.Line // node id -> line
	mine  map[int]int       // thread id -> owned node id
	pred  map[int]int       // thread id -> predecessor node id while held
}

// NewCLH creates a CLH queue lock.
func NewCLH(m *machine.Machine, pol machine.WaitPolicy) *CLH {
	l := &CLH{m: m, tail: m.NewLine("clh.tail"), pol: pol,
		mine: make(map[int]int), pred: make(map[int]int)}
	// Node 0 is the dummy "released" node; the tail starts pointing at it
	// so every acquirer always has a predecessor to spin on.
	l.lines = append(l.lines, m.NewLine("clh.node0"))
	l.tail.Init(1)
	return l
}

// Name implements Lock.
func (l *CLH) Name() string { return "CLH" }

func (l *CLH) nodeOf(t *machine.Thread) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	id, ok := l.mine[t.ID()]
	if !ok {
		l.lines = append(l.lines, l.m.NewLine("clh.node"))
		id = len(l.lines) - 1
		l.mine[t.ID()] = id
	}
	return id
}

// Lock implements Lock.
func (l *CLH) Lock(t *machine.Thread) {
	my := l.nodeOf(t)
	t.Store(l.lines[my], 1) // pending
	prev := t.Swap(l.tail, uint64(my)+1)
	predID := int(prev - 1)
	l.mu.Lock()
	l.pred[t.ID()] = predID
	l.mu.Unlock()
	if v := t.Load(l.lines[predID]); v != 0 {
		t.SpinUntil(l.lines[predID], isZero, l.pol)
	}
}

// Unlock implements Lock.
func (l *CLH) Unlock(t *machine.Thread) {
	l.mu.Lock()
	my := l.mine[t.ID()]
	// Recycle: the predecessor's (now released) node becomes ours.
	l.mine[t.ID()] = l.pred[t.ID()]
	l.mu.Unlock()
	t.Store(l.lines[my], 0)
}
