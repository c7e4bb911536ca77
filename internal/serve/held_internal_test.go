package serve

import (
	"os"
	"path/filepath"
	"testing"

	"lockin/internal/results"
)

// TestHoldChecksTheFileItRead: a run whose file was removed, or
// replaced by a newer one, after it was read is returned to its query
// but not held; a run whose file is still in place is held.
func TestHoldChecksTheFileItRead(t *testing.T) {
	path := filepath.Join(t.TempDir(), "k.json")
	store := func() os.FileInfo {
		t.Helper()
		if err := results.WriteAtomic(path, []byte("{}\n")); err != nil {
			t.Fatal(err)
		}
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		return fi
	}
	h := newHeldRuns()
	run := &results.Run{}

	read := store()
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if got := h.hold("k", path, read, run); got != run || h.get("k") != nil {
		t.Error("a run whose file was removed after the read was held")
	}

	read = store()
	store() // a newer file renamed over it
	if got := h.hold("k", path, read, run); got != run || h.get("k") != nil {
		t.Error("a run whose file was replaced after the read was held")
	}

	read = store()
	if got := h.hold("k", path, read, run); got != run || h.get("k") != run {
		t.Error("a run whose file is in place was not held")
	}
	if other := (&results.Run{}); h.hold("k", path, read, other) != run {
		t.Error("a second decode of a held key did not get the held run")
	}
}
