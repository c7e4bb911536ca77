package core

import (
	"lockin/internal/coherence"
	"lockin/internal/machine"
	"lockin/internal/sim"
)

// This file implements the lock designs the paper discusses beyond its
// six evaluated algorithms: exponential-backoff test-and-set (Anderson
// [15], Agarwal & Cherian [13]), a hierarchical NUMA-aware ticket lock in
// the spirit of HCLH/HBO/cohorting [25, 43, 54], and the monitor/mwait
// lock that §8 identifies as the payoff of user-level mwait support.

// Backoff bounds of TAS-BO, in cycles: the classic 2^k schedule from
// 128 up to 64 times that.
const (
	backoffMin sim.Cycles = 128
	backoffMax            = 64 * backoffMin
)

// BackoffTAS is test-and-set with bounded exponential backoff: failed
// acquirers pause for exponentially growing intervals instead of
// hammering the line, trading acquisition latency for far less coherence
// traffic than plain TAS.
type BackoffTAS struct {
	line *coherence.Line
}

// NewBackoffTAS creates a backoff test-and-set lock.
func NewBackoffTAS(m *machine.Machine) *BackoffTAS {
	return &BackoffTAS{line: m.NewLine("tas-bo")}
}

// Name implements Lock.
func (l *BackoffTAS) Name() string { return "TAS-BO" }

// Lock implements Lock.
func (l *BackoffTAS) Lock(t *machine.Thread) {
	backoff := backoffMin
	for {
		if t.Swap(l.line, 1) == 0 {
			return
		}
		// Back off without touching the line, then recheck.
		t.SpinFor(backoff, machine.WaitMbar)
		if backoff < backoffMax {
			backoff *= 2
		}
	}
}

// Unlock implements Lock.
func (l *BackoffTAS) Unlock(t *machine.Thread) { t.Store(l.line, 0) }

// HTicket is a hierarchical (NUMA-aware) ticket lock: one ticket lock
// per socket plus a global ticket lock. A thread first acquires its
// socket's local lock, then the global one; consecutive handovers tend
// to stay within a socket, avoiding cross-socket line transfers — the
// hierarchical-lock idea of [34, 43, 54] applied to TICKET.
type HTicket struct {
	m      *machine.Machine
	global *Ticket
	local  []*Ticket
}

// NewHTicket creates a hierarchical ticket lock over the machine's
// socket topology; its ticket locks pause with a memory barrier, as
// TICKET does.
func NewHTicket(m *machine.Machine) *HTicket {
	l := &HTicket{m: m, global: NewTicket(m, machine.WaitMbar)}
	for s := 0; s < m.Topo.Sockets; s++ {
		l.local = append(l.local, NewTicket(m, machine.WaitMbar))
	}
	return l
}

// Name implements Lock.
func (l *HTicket) Name() string { return "HTICKET" }

func (l *HTicket) socketOf(t *machine.Thread) int {
	ctx := t.Ctx()
	if ctx < 0 {
		return 0
	}
	return l.m.Topo.SocketOf(ctx)
}

// Lock implements Lock.
func (l *HTicket) Lock(t *machine.Thread) {
	l.local[l.socketOf(t)].Lock(t)
	l.global.Lock(t)
}

// Unlock implements Lock. The unlocking thread may have migrated across
// sockets while waiting; it must release the local lock it acquired, so
// the socket is re-derived from the same call order (contexts only
// change across descheduling, and a lock holder never sleeps here).
func (l *HTicket) Unlock(t *machine.Thread) {
	s := l.socketOf(t)
	l.global.Unlock(t)
	l.local[s].Unlock(t)
}

// MwaitLock is TTAS's loop with waiters blocking their hardware context
// in monitor/mwait on the lock's line between attempts, instead of
// polling or making futex calls. Its wait policy picks the variant:
//   - machine.WaitMwaitUser (MWAIT) is the §8 "what if" lock, modelling
//     the SPARC M7-style user-level support the paper argues for (no
//     kernel crossing, fast exit);
//   - machine.WaitMwait (MWAIT-K) is the lock on today's hardware,
//     where mwait needs kernel privileges, so every wait pays the
//     virtual-device crossing and the slow exit (§4.2): the variant the
//     paper measured and dismissed.
type MwaitLock struct {
	line *coherence.Line
	pol  machine.WaitPolicy
}

// NewMwaitLock creates a monitor/mwait lock waiting under pol
// (machine.WaitMwaitUser or machine.WaitMwait).
func NewMwaitLock(m *machine.Machine, pol machine.WaitPolicy) *MwaitLock {
	return &MwaitLock{line: m.NewLine("mwait-lock"), pol: pol}
}

// Name implements Lock.
func (l *MwaitLock) Name() string {
	if l.pol == machine.WaitMwait {
		return "MWAIT-K"
	}
	return "MWAIT"
}

// Lock implements Lock.
func (l *MwaitLock) Lock(t *machine.Thread) { t.SpinAcquire(l.line, casOne, l.pol) }

// Unlock implements Lock.
func (l *MwaitLock) Unlock(t *machine.Thread) { t.Store(l.line, 0) }
