package workload

import (
	"fmt"
	"sort"
	"strings"

	"lockin/internal/core"
	"lockin/internal/machine"
)

// extensionFactories maps the lock designs beyond the paper's six
// evaluated algorithms (core/extensions.go) to factories, keyed by
// their printed names.
var extensionFactories = map[string]LockFactory{
	"TAS-BO":       func(m *machine.Machine) core.Lock { return core.NewBackoffTAS(m, 0, 0) },
	"HTICKET":      func(m *machine.Machine) core.Lock { return core.NewHTicket(m, machine.WaitMbar) },
	"TICKET-PAUSE": func(m *machine.Machine) core.Lock { return core.NewTicket(m, machine.WaitPause) },
	"MWAIT":        func(m *machine.Machine) core.Lock { return core.NewMwaitLock(m, machine.WaitMwaitUser) },
	"MWAIT-K":      func(m *machine.Machine) core.Lock { return core.NewMwaitLock(m, machine.WaitMwait) },
}

// FactoryNames returns every name FactoryNamed accepts: the built-in
// algorithms in the paper's order, then the extensions alphabetically.
func FactoryNames() []string {
	names := core.KindNames()
	ext := make([]string, 0, len(extensionFactories))
	for n := range extensionFactories {
		ext = append(ext, n)
	}
	sort.Strings(ext)
	return append(names, ext...)
}

// FactoryNamed resolves a lock-algorithm name (as printed by the
// algorithm's Name method) into a LockFactory: the seven built-in
// kinds plus the extension designs. Scenario specs and CLI flags use
// it to select algorithms by string.
func FactoryNamed(name string) (LockFactory, error) {
	if k, err := core.ParseKind(name); err == nil {
		return FactoryFor(k), nil
	}
	if f, ok := extensionFactories[name]; ok {
		return f, nil
	}
	return nil, fmt.Errorf("workload: unknown lock kind %q (have %s)", name, strings.Join(FactoryNames(), ", "))
}
