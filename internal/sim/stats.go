package sim

import "sync/atomic"

// Process-wide kernel telemetry. The event-queue hot path never touches
// these: each Kernel keeps plain local counters (nrecycled, ncompact,
// nresumes, hiwater) and flushes them here once per Run exit
// (flushStats), so instrumentation costs the hot loop nothing and
// parallel sweeps do not contend on shared cache lines. Scrape surfaces
// (the benchmark service's /metrics) read them through Stats at their
// own pace.
var (
	totalRecycles    atomic.Uint64
	totalCompactions atomic.Uint64
	totalResumes     atomic.Uint64
	heapHighWater    atomic.Int64
)

// Stats is a snapshot of the process-wide kernel counters, aggregated
// across every kernel that ran (one per grid cell in a sweep).
type Stats struct {
	// EventRecycles counts event slots returned to a kernel's free
	// list — the pooled queue's "allocation avoided" tally.
	EventRecycles uint64
	// HeapCompactions counts lazy-cancel compaction passes (triggered
	// when cancelled entries outnumber live ones among ≥ 64 pending
	// events, counted across the calendar and the heap).
	HeapCompactions uint64
	// Resumes counts coroutine resumes: a handoff to a proc not on the
	// driver stack, a Start and a synchronous Wake each make one.
	Resumes uint64
	// HeapHighWater is the most pending events any kernel held at once,
	// calendar and heap together (Kernel.Pending after a push).
	HeapHighWater int
}

// GlobalStats returns the current process-wide kernel counters.
func GlobalStats() Stats {
	return Stats{
		EventRecycles:   totalRecycles.Load(),
		HeapCompactions: totalCompactions.Load(),
		Resumes:         totalResumes.Load(),
		HeapHighWater:   int(heapHighWater.Load()),
	}
}

// flushStats folds this kernel's local counters into the process-wide
// totals: three atomic adds and a CAS-max, paid once per Run, not per
// event.
func (k *Kernel) flushStats() {
	if k.nrecycled != 0 {
		totalRecycles.Add(k.nrecycled)
		k.nrecycled = 0
	}
	if k.ncompact != 0 {
		totalCompactions.Add(k.ncompact)
		k.ncompact = 0
	}
	if k.nresumes != 0 {
		totalResumes.Add(k.nresumes)
		k.nresumes = 0
	}
	hw := int64(k.hiwater)
	for {
		cur := heapHighWater.Load()
		if hw <= cur || heapHighWater.CompareAndSwap(cur, hw) {
			return
		}
	}
}
