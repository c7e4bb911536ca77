package core

import (
	"lockin/internal/coherence"
	"lockin/internal/futex"
	"lockin/internal/machine"
	"lockin/internal/sim"
)

// The glibc-style MUTEX makes one acquire attempt before it sleeps
// with futex, as glibc's default mutex does (PTHREAD_MUTEX_ADAPTIVE_NP
// would retry up to ≈100 times). The attempt is a blind CAS, not a
// watch on the lock word, so a contended handover almost always goes
// through the kernel (§4.3). The overheads model the bookkeeping
// instructions of the pthread layer (sanity checks, owner fields, type
// dispatch), in cycles.
const (
	mutexLockOverhead   sim.Cycles = 60
	mutexUnlockOverhead sim.Cycles = 40
)

// Mutex is the glibc-style futex mutex: the lock word holds 0 (free),
// 1 (locked) or 2 (locked, possibly with waiters). Contended acquirers
// sleep with FUTEX_WAIT; the release hands over through the kernel with
// FUTEX_WAKE whenever the waiters marker is set.
type Mutex struct {
	m    *machine.Machine
	line *coherence.Line
	w    *futex.Word

	stats MutexStats
}

// MutexStats counts lock-level events.
type MutexStats struct {
	Acquisitions uint64
	Sleeps       uint64 // futex-wait invocations
	Wakes        uint64 // futex-wake invocations
}

// NewMutex creates a MUTEX.
func NewMutex(m *machine.Machine) *Mutex {
	l := &Mutex{m: m, line: m.NewLine("mutex")}
	l.w = m.NewFutexWord(l.line)
	return l
}

// Name implements Lock.
func (l *Mutex) Name() string { return "MUTEX" }

// Stats returns the event counters.
func (l *Mutex) Stats() MutexStats { return l.stats }

// Lock implements Lock.
func (l *Mutex) Lock(t *machine.Thread) {
	t.Compute(mutexLockOverhead)
	l.stats.Acquisitions++
	if t.CAS(l.line, 0, 1) {
		return
	}
	// Slow path: mark waiters and sleep until handed the lock.
	for t.Swap(l.line, 2) != 0 {
		l.stats.Sleeps++
		t.FutexWait(l.w, 2, 0)
	}
}

// Unlock implements Lock.
func (l *Mutex) Unlock(t *machine.Thread) {
	t.Compute(mutexUnlockOverhead)
	if old := t.Swap(l.line, 0); old == 2 {
		l.stats.Wakes++
		t.FutexWake(l.w, 1)
	}
}
