package core

import (
	"lockin/internal/coherence"
	"lockin/internal/futex"
	"lockin/internal/machine"
)

// Cond is a futex-based condition variable (the pthread_cond pattern the
// paper's systems — notably RocksDB's write queue — rely on).
type Cond struct {
	m   *machine.Machine
	seq *coherence.Line // wake sequence number
	w   *futex.Word
}

// NewCond creates a condition variable.
func NewCond(m *machine.Machine) *Cond {
	c := &Cond{m: m, seq: m.NewLine("cond.seq")}
	c.w = m.NewFutexWord(c.seq)
	return c
}

// Wait atomically releases l and sleeps until signalled, then reacquires
// l before returning. The caller must hold l.
func (c *Cond) Wait(t *machine.Thread, l Lock) {
	v := t.Load(c.seq)
	l.Unlock(t)
	// Sleep until the sequence number moves past our snapshot. A
	// mismatch means a signal already happened: just reacquire.
	t.FutexWait(c.w, v, 0)
	l.Lock(t)
}

// Signal wakes one waiter.
func (c *Cond) Signal(t *machine.Thread) {
	t.FetchAdd(c.seq, 1)
	t.FutexWake(c.w, 1)
}

// Broadcast wakes all waiters.
func (c *Cond) Broadcast(t *machine.Thread) {
	t.FetchAdd(c.seq, 1)
	t.FutexWake(c.w, 1<<30)
}

// RWLock is a reader-writer lock layered over any Lock algorithm, the way
// the paper swaps pthread rwlocks by changing the underlying scheme:
// writers hold the inner lock for the whole critical section; readers
// take it only to adjust the reader count, and writers drain readers.
type RWLock struct {
	m       *machine.Machine
	inner   Lock
	readers *coherence.Line
	pol     machine.WaitPolicy
}

// NewRWLock wraps inner into a reader-writer lock.
func NewRWLock(m *machine.Machine, inner Lock, pol machine.WaitPolicy) *RWLock {
	return &RWLock{m: m, inner: inner, readers: m.NewLine("rw.readers"), pol: pol}
}

// Name returns the wrapped algorithm's name with an RW prefix.
func (l *RWLock) Name() string { return "RW-" + l.inner.Name() }

// RLock acquires the lock in shared mode.
func (l *RWLock) RLock(t *machine.Thread) {
	l.inner.Lock(t)
	t.FetchAdd(l.readers, 1)
	l.inner.Unlock(t)
}

// RUnlock releases a shared acquisition.
func (l *RWLock) RUnlock(t *machine.Thread) {
	t.FetchAdd(l.readers, ^uint64(0)) // -1
}

// Lock acquires the lock exclusively, draining active readers.
func (l *RWLock) Lock(t *machine.Thread) {
	l.inner.Lock(t)
	if t.Load(l.readers) != 0 {
		t.SpinUntil(l.readers, isZero, l.pol)
	}
}

// Unlock releases an exclusive acquisition.
func (l *RWLock) Unlock(t *machine.Thread) {
	l.inner.Unlock(t)
}
