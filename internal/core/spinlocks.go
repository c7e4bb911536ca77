package core

import (
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
//
// The per-thread state of MCS and CLH lives in slices indexed by thread
// id, which sched.Spawn numbers densely from 0. Simulation bodies run
// one at a time (invariant 3 in internal/sim/DESIGN.md), so nothing
// guards them.
type MCS struct {
	m    *machine.Machine
	tail *coherence.Line // waiting-queue tail: thread id + 1; 0 = empty
	pol  machine.WaitPolicy

	nodes []*qnode // thread id -> its node, made on its first Lock
}

// NewMCS creates an MCS queue lock.
func NewMCS(m *machine.Machine, pol machine.WaitPolicy) *MCS {
	return &MCS{m: m, tail: m.NewLine("mcs.tail"), pol: pol}
}

// Name implements Lock.
func (l *MCS) Name() string { return "MCS" }

// Lock implements Lock.
func (l *MCS) Lock(t *machine.Thread) {
	id := t.ID()
	if id >= len(l.nodes) {
		l.nodes = append(l.nodes, make([]*qnode, id+1-len(l.nodes))...)
	}
	me := l.nodes[id]
	if me == nil {
		me = &qnode{
			locked: l.m.NewLine("mcs.locked"),
			next:   l.m.NewLine("mcs.next"),
		}
		l.nodes[id] = me
	}
	t.Compute(40) // locate the per-(lock,thread) queue node
	t.Store(me.next, 0)
	t.Store(me.locked, 1)
	prev := t.Swap(l.tail, uint64(id)+1)
	if prev == 0 {
		return
	}
	t.Store(l.nodes[prev-1].next, uint64(id)+1)
	t.SpinUntil(me.locked, isZero, l.pol)
}

// Unlock implements Lock.
func (l *MCS) Unlock(t *machine.Thread) {
	me := l.nodes[t.ID()]
	t.Compute(40) // locate the queue node again
	if t.Load(me.next) == 0 {
		if t.CAS(l.tail, uint64(t.ID())+1, 0) {
			return
		}
		// A successor is enqueueing: wait for its link.
		t.SpinUntil(me.next, func(v uint64) bool { return v != 0 }, l.pol)
	}
	t.Store(l.nodes[t.Load(me.next)-1].locked, 0)
}

// CLH is the Craig–Landin–Hagersten queue lock: an implicit queue where
// each waiter spins on its predecessor's node; nodes are recycled between
// acquisitions.
type CLH struct {
	m    *machine.Machine
	tail *coherence.Line // current tail node id + 1
	pol  machine.WaitPolicy

	lines []*coherence.Line // node id -> line
	// mine is a thread's owned node id + 1, 0 before its first Lock: a
	// recycled node can be the dummy node 0.
	mine []int // by thread id
	pred []int // by thread id: the predecessor node id while held
}

// NewCLH creates a CLH queue lock.
func NewCLH(m *machine.Machine, pol machine.WaitPolicy) *CLH {
	l := &CLH{m: m, tail: m.NewLine("clh.tail"), pol: pol}
	// Node 0 is the dummy "released" node; the tail starts pointing at it
	// so every acquirer always has a predecessor to spin on.
	l.lines = append(l.lines, m.NewLine("clh.node0"))
	l.tail.Init(1)
	return l
}

// Name implements Lock.
func (l *CLH) Name() string { return "CLH" }

// Lock implements Lock.
func (l *CLH) Lock(t *machine.Thread) {
	id := t.ID()
	if id >= len(l.mine) {
		grow := id + 1 - len(l.mine)
		l.mine = append(l.mine, make([]int, grow)...)
		l.pred = append(l.pred, make([]int, grow)...)
	}
	if l.mine[id] == 0 {
		l.lines = append(l.lines, l.m.NewLine("clh.node"))
		l.mine[id] = len(l.lines)
	}
	my := l.mine[id] - 1
	t.Store(l.lines[my], 1) // pending
	prev := t.Swap(l.tail, uint64(my)+1)
	predID := int(prev - 1)
	l.pred[id] = predID
	if v := t.Load(l.lines[predID]); v != 0 {
		t.SpinUntil(l.lines[predID], isZero, l.pol)
	}
}

// Unlock implements Lock.
func (l *CLH) Unlock(t *machine.Thread) {
	id := t.ID()
	my := l.mine[id] - 1
	// Recycle: the predecessor's (now released) node becomes ours.
	l.mine[id] = l.pred[id] + 1
	t.Store(l.lines[my], 0)
}
