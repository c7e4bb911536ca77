package lockin

import "testing"

func TestFacadeKindsAndLocks(t *testing.T) {
	m := NewMachine(1)
	if len(Kinds()) != 7 {
		t.Fatalf("kinds: %v", Kinds())
	}
	for _, k := range Kinds() {
		l := NewLock(m, k)
		if l.Name() == "" {
			t.Fatal("unnamed lock")
		}
	}
}

func TestFacadeMicroRun(t *testing.T) {
	cfg := DefaultMicroConfig(1)
	cfg.Factory = FactoryFor(MUTEXEE)
	cfg.Threads = 4
	cfg.Duration = 3_000_000
	r := RunMicro(cfg)
	if r.Ops == 0 || r.TPP() <= 0 {
		t.Fatalf("facade micro run broken: %+v", r.Measurement)
	}
}

func TestFacadeSystemsAndExperiments(t *testing.T) {
	if len(Experiments()) < 19 {
		t.Fatalf("experiments: %d", len(Experiments()))
	}
	if _, err := RunExperiment("nope"); err == nil {
		t.Fatal("RunExperiment accepted garbage id")
	}
	tabs, err := RunExperiment("tbl_sleep")
	if err != nil || len(tabs) == 0 || tabs[0].NumRows() == 0 {
		t.Fatalf("RunExperiment failed: %v", err)
	}
}

func TestFacadeDesktopMachine(t *testing.T) {
	m := NewDesktopMachine(1)
	if m.Topo.NumContexts() != 8 {
		t.Fatalf("desktop contexts: %d", m.Topo.NumContexts())
	}
}

func TestFacadeMutexeeConstructor(t *testing.T) {
	o := DefaultMutexeeOptions()
	m := NewMachine(2)
	if NewMutexee(m, o).Name() != "MUTEXEE" {
		t.Fatal("mutexee constructor broken")
	}
}
