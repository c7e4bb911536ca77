package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"sync"

	"lockin/internal/bench/opts"
	"lockin/internal/results"
)

// journalName is the persistent submission journal inside the cache
// directory. The .jsonl suffix keeps it out of the run cache's *.json
// namespace, so listings, lookups and eviction never mistake it for a
// stored run.
const journalName = "journal.jsonl"

// journalEntry is one accepted submission, recorded durably before it
// is queued: its cache key and the job exactly as submitted — the
// scenario spec bytes as POSTed (the id alone would not survive a
// restart; the spec was never registered) or the experiment id, plus
// the options. Replay resolves the job the way handleSubmit did. The
// job's fields flatten into the line, so a line reads
// {"key":…,"spec":{…},"seed":7,"scale":1,"quick":true}.
type journalEntry struct {
	Key string `json:"key"`
	opts.Job
}

// journal is the persistent submission log: append-before-queue on
// accept, drop-and-compact on land. Restarting a server replays the
// pending entries, and because completed keys are already in the cache
// the replay is idempotent — a run is never simulated twice for the
// same journaled submission.
type journal struct {
	path string

	mu      sync.Mutex
	f       *os.File
	pending map[string]journalEntry
	order   []string // append order, so replay re-queues fairly
}

// openJournal opens (creating if missing) the journal of a cache
// directory and returns the entries left pending by the previous
// process, in append order. A torn tail line — the process died
// mid-append — is skipped, never fatal: the client of that submission
// never got its 202 anyway.
func openJournal(dir string) (*journal, []journalEntry, error) {
	j := &journal{path: filepath.Join(dir, journalName), pending: map[string]journalEntry{}}
	b, err := os.ReadFile(j.path)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, nil, err
	}
	var entries []journalEntry
	for _, line := range bytes.Split(b, []byte("\n")) {
		line = bytes.TrimSpace(line)
		if len(line) == 0 {
			continue
		}
		var e journalEntry
		if err := json.Unmarshal(line, &e); err != nil || e.Key == "" {
			continue
		}
		if _, dup := j.pending[e.Key]; dup {
			continue
		}
		j.pending[e.Key] = e
		j.order = append(j.order, e.Key)
		entries = append(entries, e)
	}
	f, err := os.OpenFile(j.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, err
	}
	j.f = f
	return j, entries, nil
}

// append records one accepted submission durably (write + sync) before
// the caller queues it. A key already pending is a no-op: attaching to
// an in-flight identical submission must not duplicate its entry.
func (j *journal) append(e journalEntry) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	if _, dup := j.pending[e.Key]; dup {
		return nil
	}
	b, err := json.Marshal(e)
	if err != nil {
		return err
	}
	if _, err := j.f.Write(append(b, '\n')); err != nil {
		return err
	}
	if err := j.f.Sync(); err != nil {
		return err
	}
	j.pending[e.Key] = e
	j.order = append(j.order, e.Key)
	return nil
}

// complete drops a landed (or rejected) submission and compacts the
// file, so the journal only ever holds work that still needs doing.
// Journals are small — at most the queue depth of entries — so the
// rewrite-per-completion is cheap next to the simulation that just
// finished.
func (j *journal) complete(key string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, ok := j.pending[key]; !ok {
		return
	}
	delete(j.pending, key)
	j.compactLocked()
}

// compactLocked rewrites the journal with only the pending entries,
// atomically (results.WriteAtomic), then reopens the append handle
// onto the new file. Failures are swallowed: a stale journal only
// risks replaying already-cached keys, which replay skips.
func (j *journal) compactLocked() {
	if j.f == nil {
		return
	}
	var buf bytes.Buffer
	keep := j.order[:0]
	for _, k := range j.order {
		e, ok := j.pending[k]
		if !ok {
			continue
		}
		keep = append(keep, k)
		b, err := json.Marshal(e)
		if err != nil {
			continue
		}
		buf.Write(b)
		buf.WriteByte('\n')
	}
	j.order = keep
	if err := results.WriteAtomic(j.path, buf.Bytes()); err != nil {
		return
	}
	f, err := os.OpenFile(j.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return
	}
	j.f.Close()
	j.f = f
}

// count returns how many accepted submissions have not landed yet —
// the journal_pending gauge.
func (j *journal) count() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.pending)
}

// close compacts one last time and releases the file handle. Called
// after the worker pool drained, so a clean shutdown leaves an empty
// journal.
func (j *journal) close() {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return
	}
	j.compactLocked()
	j.f.Close()
	j.f = nil
}
