// Package core implements the paper's primary contribution: the lock
// algorithms under study — the spinlocks TAS, TTAS, TICKET, MCS and CLH,
// a glibc-style futex MUTEX, and MUTEXEE, the paper's redesigned mutex —
// together with condition variables and a reader-writer wrapper, all
// running on the simulated machine. The catalogue below declares each
// algorithm once, the designs beyond the paper's seven included.
//
// Every algorithm follows the paper's §2 taxonomy: spinlocks differ in
// their busy-waiting pattern (global vs local spinning, pausing
// technique), while the futex-based locks differ in when they give up
// spinning and how they hand the lock over.
package core

import (
	"fmt"
	"strings"

	"lockin/internal/machine"
)

// Lock is the mutual-exclusion abstraction all algorithms implement.
type Lock interface {
	// Name returns the algorithm name (e.g. "TICKET").
	Name() string
	// Lock acquires the lock for the calling simulated thread.
	Lock(t *machine.Thread)
	// Unlock releases the lock.
	Unlock(t *machine.Thread)
}

// Kind names one algorithm of the lock catalogue.
type Kind int

const (
	// KindMutex is the glibc-style futex mutex (sleeps under contention).
	KindMutex Kind = iota
	// KindTAS is test-and-set: global spinning with atomics.
	KindTAS
	// KindTTAS is test-and-test-and-set: local spinning, then an atomic.
	KindTTAS
	// KindTicket is the FIFO ticket lock.
	KindTicket
	// KindMCS is the Mellor-Crummey–Scott queue lock.
	KindMCS
	// KindCLH is the Craig–Landin–Hagersten queue lock.
	KindCLH
	// KindMutexee is the paper's optimized futex mutex.
	KindMutexee

	// The designs beyond the paper's seven (extensions.go, and TICKET
	// pausing with pause), in alphabetical order of their names.

	// KindHTicket is the hierarchical, NUMA-aware ticket lock.
	KindHTicket
	// KindMwait is the monitor/mwait lock with §8's user-level mwait.
	KindMwait
	// KindMwaitK is the monitor/mwait lock on today's kernel-only mwait.
	KindMwaitK
	// KindBackoffTAS is test-and-set with exponential backoff.
	KindBackoffTAS
	// KindTicketPause is TICKET pausing with pause instead of a memory
	// barrier (§5.2).
	KindTicketPause
)

// paperKinds counts the paper's seven algorithms, which lead the
// catalogue.
const paperKinds = KindMutexee + 1

// catalogue declares every lock algorithm once, indexed by Kind: the
// name its locks print and its constructor with the options every run
// uses.
var catalogue = [...]struct {
	name string
	new  func(*machine.Machine) Lock
}{
	KindMutex:       {"MUTEX", func(m *machine.Machine) Lock { return NewMutex(m) }},
	KindTAS:         {"TAS", func(m *machine.Machine) Lock { return NewTAS(m) }},
	KindTTAS:        {"TTAS", func(m *machine.Machine) Lock { return NewTTAS(m, machine.WaitMbar) }},
	KindTicket:      {"TICKET", func(m *machine.Machine) Lock { return NewTicket(m, machine.WaitMbar) }},
	KindMCS:         {"MCS", func(m *machine.Machine) Lock { return NewMCS(m, machine.WaitMbar) }},
	KindCLH:         {"CLH", func(m *machine.Machine) Lock { return NewCLH(m, machine.WaitMbar) }},
	KindMutexee:     {"MUTEXEE", func(m *machine.Machine) Lock { return NewMutexee(m, DefaultMutexeeOptions()) }},
	KindHTicket:     {"HTICKET", func(m *machine.Machine) Lock { return NewHTicket(m) }},
	KindMwait:       {"MWAIT", func(m *machine.Machine) Lock { return NewMwaitLock(m, machine.WaitMwaitUser) }},
	KindMwaitK:      {"MWAIT-K", func(m *machine.Machine) Lock { return NewMwaitLock(m, machine.WaitMwait) }},
	KindBackoffTAS:  {"TAS-BO", func(m *machine.Machine) Lock { return NewBackoffTAS(m) }},
	KindTicketPause: {"TICKET-PAUSE", func(m *machine.Machine) Lock { return NewTicket(m, machine.WaitPause) }},
}

func (k Kind) String() string {
	if k < 0 || int(k) >= len(catalogue) {
		return fmt.Sprintf("Kind(%d)", int(k))
	}
	return catalogue[k].name
}

// AllKinds returns the paper's seven algorithms, in its table order.
func AllKinds() []Kind {
	out := make([]Kind, 0, paperKinds)
	for k := Kind(0); k < paperKinds; k++ {
		out = append(out, k)
	}
	return out
}

// ParseKind resolves a catalogue name (case-sensitive, as printed).
func ParseKind(name string) (Kind, error) {
	names := make([]string, len(catalogue))
	for k, a := range catalogue {
		if a.name == name {
			return Kind(k), nil
		}
		names[k] = a.name
	}
	return 0, fmt.Errorf("unknown lock kind %q (have %s)", name, strings.Join(names, ", "))
}

// New instantiates a lock of the given kind from the catalogue.
// While trace capture is armed (CaptureTraces), the lock comes back
// wrapped in a Traced recorder.
func New(m *machine.Machine, k Kind) Lock {
	return maybeTrace(catalogue[k].new(m))
}

// MutexeeWith returns a constructor of MUTEXEE with
// DefaultMutexeeOptions as mod changes them: a futex timeout, or a
// design choice turned off. Like New's, its locks come back traced
// while capture is armed.
func MutexeeWith(mod func(*MutexeeOptions)) func(*machine.Machine) Lock {
	return func(m *machine.Machine) Lock {
		o := DefaultMutexeeOptions()
		mod(&o)
		return maybeTrace(NewMutexee(m, o))
	}
}
