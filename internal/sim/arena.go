package sim

import (
	"sync"
	"sync/atomic"

	"basevictim/internal/arena"
)

// Per-run arenas: a run's cache tag arrays, ROB, prefetcher state and
// value-model memos are carved from one arena and returned when the
// run ends, so repeated runs (sweeps, pairs, parallel sessions, a
// long-lived service worker) stop exercising the heap for their
// largest allocations.
//
// One arena is held strongly in held; any further arenas a parallel
// caller needs come from arenaPool. A sync.Pool drops its contents at
// every second GC, which would make a process that runs one
// simulation at a time rebuild its arena over and over; the held
// arena instead lives as long as the process, and Reset's merging
// keeps its footprint at the largest run seen.
var (
	held      atomic.Pointer[arena.Arena]
	arenaPool = sync.Pool{New: func() any { return arena.New() }}
)

// getArena takes an empty arena: the held one when it is free.
func getArena() *arena.Arena {
	if a := held.Swap(nil); a != nil {
		return a
	}
	return arenaPool.Get().(*arena.Arena)
}

// putArena resets the arena and returns it, refilling the held slot
// first. Callers must not retain anything allocated from it; results
// that outlive the run are copied by value before this point.
func putArena(a *arena.Arena) {
	a.Reset()
	if !held.CompareAndSwap(nil, a) {
		arenaPool.Put(a)
	}
}
