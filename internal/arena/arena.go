// Package arena provides slab allocation for per-run simulator state.
//
// A simulation run allocates a few dozen large, flat arrays (tag
// stores, replacement-policy metadata, prefetch tables, value-model
// memos) at setup and then must not allocate at all in steady state.
// An Arena turns those setup allocations into carve-outs from a small
// number of reusable chunks: one run's worth of state costs a handful
// of heap objects instead of hundreds, and a pooled Arena reused
// across runs (see internal/sim) costs none after the first.
//
// Arenas are deliberately dumb: grow-only typed slabs with a wholesale
// Reset. There is no per-object free, which is exactly the lifetime
// per-run state has. Every slice handed out is zeroed, so a reused
// Arena is indistinguishable from fresh heap memory and simulation
// determinism is preserved.
//
// An arena's footprint is bounded by its largest cycle, not by the
// number of cycles: Reset folds a slab that had to grow into a single
// chunk sized to the slab's high-water mark, so a reused arena stops
// adding chunks once it has seen its largest run, whatever order runs
// of different shapes arrive in.
//
// An Arena is not safe for concurrent use; parallel sessions give each
// run its own (internal/sim pools them).
package arena

import "reflect"

// chunkElems is the minimum chunk size, in elements, a slab grows by.
// Large enough to merge the simulator's many small setup slices into
// few chunks, small enough that an over-provisioned slab wastes little.
const chunkElems = 4096

// slab is the non-generic view of a typed slab, used for Reset.
type slab interface {
	reset()
	chunkCount() int
}

// typedSlab carves []T allocations out of grow-only chunks, first fit:
// a carve goes into the first chunk with room, so a slab that had to
// grow still fills the tail of its older chunks with later, smaller
// carves.
type typedSlab[T any] struct {
	chunks [][]T
	offs   []int // carve offset within each chunk
	used   int   // elements carved since the last reset
	peak   int   // largest used seen at a reset
}

// reset rewinds the slab. A slab that needed more than one chunk drops
// them, and its next alloc makes one chunk of the high-water mark:
// carving from a single chunk wastes nothing at chunk ends, so every
// later cycle no larger than the largest so far fits without growing.
// The merged chunk is made lazily so that a collection between cycles
// can hand the dropped chunks' memory to it.
func (s *typedSlab[T]) reset() {
	s.peak = max(s.peak, s.used)
	if len(s.chunks) > 1 {
		s.chunks, s.offs = nil, nil
	}
	clear(s.offs)
	s.used = 0
}

// chunkCount counts the slab's chunks; a slab whose chunks Reset
// dropped counts the one merged chunk its next alloc makes.
func (s *typedSlab[T]) chunkCount() int {
	if len(s.chunks) == 0 && s.peak > 0 {
		return 1
	}
	return len(s.chunks)
}

func (s *typedSlab[T]) alloc(n int) []T {
	s.used += n
	for i, c := range s.chunks {
		if off := s.offs[i]; len(c)-off >= n {
			out := c[off : off+n : off+n]
			s.offs[i] = off + n
			// Reused chunks hold a previous run's state; zero the
			// carve-out so determinism does not depend on pool history.
			clear(out)
			return out
		}
	}
	size := max(n, chunkElems)
	if len(s.chunks) == 0 {
		size = max(size, s.peak)
	}
	c := make([]T, size) // fresh chunks are already zero
	s.chunks = append(s.chunks, c)
	s.offs = append(s.offs, n)
	return c[:n:n]
}

// Arena hands out typed slices with slab allocation and wholesale
// reuse. The zero Arena is not usable; call New.
type Arena struct {
	slabs map[slabKey]slab
	// order keeps a deterministic Reset sequence (map iteration order
	// is randomized; resets are independent, but a fixed order keeps
	// the arena boring to reason about).
	order []slab
}

// slabKey names a slab: its element type and the group it serves ("" for
// plain Make).
type slabKey struct {
	t     reflect.Type
	group string
}

// New returns an empty arena.
func New() *Arena {
	return &Arena{slabs: make(map[slabKey]slab)}
}

// Reset recycles every slab: its chunks are kept (or merged into one,
// see typedSlab.reset) and re-carved by subsequent Make calls. Slices
// handed out before Reset must no longer be used; they will be zeroed
// and recycled.
func (a *Arena) Reset() {
	for _, s := range a.order {
		s.reset()
	}
}

// Chunks reports how many chunks the arena holds across all its typed
// slabs. A reused arena whose count stops rising has reached its
// steady footprint.
func (a *Arena) Chunks() int {
	n := 0
	for _, s := range a.order {
		n += s.chunkCount()
	}
	return n
}

// Make returns a zeroed []T of length (and capacity) n carved from the
// arena. A nil arena degrades to plain make, so code paths can thread
// an optional arena without branching at every call site.
func Make[T any](a *Arena, n int) []T { return MakeGroup[T](a, "", n) }

// MakeGroup is Make from a slab kept apart for group. Carves whose
// sizes change from run to run while their neighbours' stay fixed (an
// LLC's tag arrays change with the organization) belong in a group:
// when a reused arena has to grow for them, only their own slab grows,
// instead of the fixed carves after them spilling into a new chunk and
// stranding the tail of the old one for that run.
func MakeGroup[T any](a *Arena, group string, n int) []T {
	if a == nil {
		return make([]T, n)
	}
	if n < 0 {
		// Mirrors the runtime's own contract for make([]T, n): a
		// negative length is a programming error at the call site, not
		// a runtime condition an error return could help with.
		//lint:allow exitcode same panic the builtin make would raise
		panic("arena: negative length")
	}
	key := slabKey{reflect.TypeFor[T](), group}
	s, ok := a.slabs[key].(*typedSlab[T])
	if !ok {
		s = &typedSlab[T]{}
		a.slabs[key] = s
		a.order = append(a.order, s)
	}
	return s.alloc(n)
}
