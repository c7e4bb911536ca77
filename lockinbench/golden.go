package main

import (
	"crypto/sha256"
	"embed"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
)

// The golden digests of the outputs each workload must reproduce, one
// file per seed (seed 7 is held out: nothing was tuned on it). They are
// embedded so the benchmark binary carries its own oracle; regenerate
// them with -update-golden when a change is meant to alter outputs.
//
//go:embed golden/*.json
var goldenFS embed.FS

// goldenFile maps workload → output name → SHA-256 digest.
type goldenFile struct {
	Seed      int64                        `json:"seed"`
	Workloads map[string]map[string]string `json:"workloads"`
}

func goldenName(seed int64) string { return fmt.Sprintf("seed-%d.json", seed) }

// loadGolden returns the golden digests of a workload at seed, or nil
// when the seed has no golden file.
func loadGolden(seed int64, workload string) (map[string]string, error) {
	b, err := fs.ReadFile(goldenFS, "golden/"+goldenName(seed))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var g goldenFile
	if err := json.Unmarshal(b, &g); err != nil {
		return nil, fmt.Errorf("golden %s: %w", goldenName(seed), err)
	}
	d, ok := g.Workloads[workload]
	if !ok {
		return nil, fmt.Errorf("golden %s has no digests for %s; regenerate it with -update-golden", goldenName(seed), workload)
	}
	return d, nil
}

// writeGolden stores the digests of every workload at seed under dir.
func writeGolden(dir string, seed int64, digests map[string]map[string]string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, goldenName(seed))
	return path, writeJSON(path, goldenFile{Seed: seed, Workloads: digests})
}

// digest is the hex SHA-256 of s.
func digest(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// verifier checks named output digests: against the golden digests when
// the seed has them, otherwise against the first digest seen under the
// same name, so that every repetition must agree with the first.
type verifier struct {
	golden map[string]string
	seen   map[string]string
}

func newVerifier(golden map[string]string) *verifier {
	return &verifier{golden: golden, seen: map[string]string{}}
}

// ok records digest d under name and reports whether it is correct.
func (v *verifier) ok(name, d string) bool {
	if _, dup := v.seen[name]; !dup {
		v.seen[name] = d
	}
	if v.golden != nil {
		return v.golden[name] == d
	}
	return v.seen[name] == d
}
