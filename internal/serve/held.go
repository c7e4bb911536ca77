package serve

import (
	"container/list"
	"os"
	"sync"

	"lockin/internal/results"
)

// heldBudget bounds the decoded runs the query endpoints keep in
// memory, counted in the stored bytes of their files. A run whose file
// alone exceeds it is decoded on every query instead.
const heldBudget = 32 << 20

// heldRuns keeps decoded runs for the query endpoints (slice, project,
// diff), so a stored run is read and decoded once rather than on every
// query. It drops the least recently queried run first once the held
// files' sizes exceed the budget.
//
// A held run is shared by every query of its key and must never be
// modified: results.Slice, results.Project, results.Compare and
// results.ComparePlanes only read their inputs. Sharing is sound
// because keys are content-addressed and the store never rewrites a
// file in place (results.WriteAtomic renames a new one over it), so a
// held run stays exactly its file's contents until the file goes, and
// then it goes too: evictPass drops it with the file, and so does any
// request that finds the file gone (Server.touch).
type heldRuns struct {
	mu     sync.Mutex
	budget int64 // heldBudget; tests lower it to overflow it with small runs
	bytes  int64
	order  list.List // of *heldRun, most recently queried first
	byKey  map[string]*list.Element
}

type heldRun struct {
	key  string
	size int64
	run  *results.Run
}

func newHeldRuns() *heldRuns {
	return &heldRuns{budget: heldBudget, byKey: map[string]*list.Element{}}
}

// get returns the held run of key, or nil, and marks it most recently
// queried.
func (h *heldRuns) get(key string) *results.Run {
	h.mu.Lock()
	defer h.mu.Unlock()
	e := h.byKey[key]
	if e == nil {
		return nil
	}
	h.order.MoveToFront(e)
	return e.Value.(*heldRun).run
}

// hold keeps run, decoded from the file at path that fi describes, and
// returns the run queries of key should use: the one already held when
// a concurrent query got there first, else run itself. The run is held
// only if path still names the file it was read from, checked under
// the lock evictPass's drop takes after removing a file, so a run read
// just before its file was evicted (or replaced by a fresh simulation
// of the same key) is served to its query but never held. The caller
// keeps that file open, so its inode is not reused meanwhile.
func (h *heldRuns) hold(key, path string, fi os.FileInfo, run *results.Run) *results.Run {
	size := fi.Size()
	h.mu.Lock()
	defer h.mu.Unlock()
	if e := h.byKey[key]; e != nil {
		h.order.MoveToFront(e)
		return e.Value.(*heldRun).run
	}
	if size > h.budget {
		return run
	}
	if now, err := os.Stat(path); err != nil || !os.SameFile(fi, now) {
		return run
	}
	h.byKey[key] = h.order.PushFront(&heldRun{key: key, size: size, run: run})
	h.bytes += size
	for h.bytes > h.budget {
		h.removeLocked(h.order.Back())
	}
	return run
}

// drop forgets the held run of key, if any.
func (h *heldRuns) drop(key string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if e := h.byKey[key]; e != nil {
		h.removeLocked(e)
	}
}

func (h *heldRuns) removeLocked(e *list.Element) {
	r := h.order.Remove(e).(*heldRun)
	delete(h.byKey, r.key)
	h.bytes -= r.size
}
