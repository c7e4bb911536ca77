package scenario

import (
	"embed"
	"fmt"
	"io/fs"

	"lockin/internal/experiments"
)

// The bundled scenario library: the §6 systems expressed declaratively
// plus contention patterns the paper never ran. Every spec in specs/
// compiles and registers as an experiment at init, so importing this
// package makes them runnable as `lockbench -experiment
// scenario:<name>`. Init registers Figures 13-15 first: they run
// Table 3, which is points of the bundled §6 specs (sect6.go).
//
//go:embed specs/*.json
var specFS embed.FS

// Bundled parses and compiles every embedded spec, sorted by file
// name. It re-reads the bundle each call so validation tooling
// (`lockbench -validate-scenarios`) exercises the full parse path.
func Bundled() ([]*Compiled, error) {
	ents, err := fs.ReadDir(specFS, "specs")
	if err != nil {
		return nil, fmt.Errorf("scenario: read bundle: %w", err)
	}
	var out []*Compiled
	for _, e := range ents {
		data, err := fs.ReadFile(specFS, "specs/"+e.Name())
		if err != nil {
			return nil, fmt.Errorf("scenario: read bundled %s: %w", e.Name(), err)
		}
		c, err := ParseAndCompile(data)
		if err != nil {
			return nil, fmt.Errorf("scenario: bundled %s: %w", e.Name(), err)
		}
		out = append(out, c)
	}
	return out, nil
}

// BundledSpec returns the raw bytes of one bundled spec file.
func BundledSpec(file string) ([]byte, error) {
	return fs.ReadFile(specFS, "specs/"+file)
}

func init() {
	cs, err := Bundled()
	if err != nil {
		// A broken bundled spec is a build defect, caught by the package
		// tests and `lockbench -validate-scenarios` in CI.
		panic(err)
	}
	if sect6, err = resolveTable3(cs); err != nil {
		panic(err)
	}
	registerSect6()
	for _, c := range cs {
		experiments.Register(c.Experiment())
	}
}
