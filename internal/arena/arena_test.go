package arena

import (
	"reflect"
	"testing"
)

func TestNilArenaFallsBackToMake(t *testing.T) {
	s := Make[int]((*Arena)(nil), 7)
	if len(s) != 7 || cap(s) != 7 {
		t.Fatalf("nil arena Make: len=%d cap=%d, want 7/7", len(s), cap(s))
	}
	for i, v := range s {
		if v != 0 {
			t.Fatalf("nil arena Make: s[%d]=%d, want 0", i, v)
		}
	}
}

func TestMakeZeroedAndSized(t *testing.T) {
	a := New()
	s := Make[uint64](a, 100)
	if len(s) != 100 || cap(s) != 100 {
		t.Fatalf("len=%d cap=%d, want 100/100", len(s), cap(s))
	}
	for i := range s {
		if s[i] != 0 {
			t.Fatalf("s[%d]=%d, want 0", i, s[i])
		}
		s[i] = uint64(i) + 1
	}
}

func TestCarveOutsDoNotOverlap(t *testing.T) {
	a := New()
	s1 := Make[int32](a, 10)
	s2 := Make[int32](a, 10)
	for i := range s1 {
		s1[i] = 1
	}
	for i := range s2 {
		if s2[i] != 0 {
			t.Fatalf("s2 overlaps s1 at %d", i)
		}
	}
	// Appending to a carve-out must not clobber the next one.
	s1 = append(s1, 99)
	if s2[0] != 0 {
		t.Fatal("append to s1 clobbered s2 (capacity not clamped)")
	}
}

func TestResetReusesAndZeroes(t *testing.T) {
	a := New()
	s := Make[uint64](a, chunkElems)
	base := &s[0]
	for i := range s {
		s[i] = ^uint64(0)
	}
	a.Reset()
	s2 := Make[uint64](a, chunkElems)
	if &s2[0] != base {
		t.Fatal("Reset did not reuse the existing chunk")
	}
	for i := range s2 {
		if s2[i] != 0 {
			t.Fatalf("reused chunk not zeroed at %d", i)
		}
	}
}

func TestOversizedAllocationGetsOwnChunk(t *testing.T) {
	a := New()
	big := Make[byte](a, 3*chunkElems)
	if len(big) != 3*chunkElems {
		t.Fatalf("len=%d", len(big))
	}
	// A small allocation after a big one still works.
	small := Make[byte](a, 8)
	if len(small) != 8 {
		t.Fatalf("len=%d", len(small))
	}
}

// TestGroupsHaveTheirOwnSlabs: a grouped carve of the same type comes
// from its own slab, so growing it leaves the ungrouped slab alone.
func TestGroupsHaveTheirOwnSlabs(t *testing.T) {
	a := New()
	plain := Make[uint64](a, 100)
	grouped := MakeGroup[uint64](a, "tags", 100)
	if &plain[0] == &grouped[0] || a.Chunks() != 2 {
		t.Fatalf("grouped carve shares the plain slab (%d chunks, want 2)", a.Chunks())
	}
	a.Reset()
	Make[uint64](a, 100)
	MakeGroup[uint64](a, "tags", 3*chunkElems) // the group grows...
	if got := a.Chunks(); got != 3 {
		t.Fatalf("%d chunks after the group grew, want 3", got)
	}
	a.Reset()
	plain2 := Make[uint64](a, 100) // ...and the plain slab is untouched
	if &plain2[0] != &plain[0] {
		t.Fatal("growing a group moved the plain slab's carves")
	}
}

func TestDistinctTypesDistinctSlabs(t *testing.T) {
	a := New()
	ints := Make[int](a, 4)
	floats := Make[float64](a, 4)
	ints[0] = 42
	if floats[0] != 0 {
		t.Fatal("typed slabs alias")
	}
}

func TestReuseIsAllocationFree(t *testing.T) {
	a := New()
	warm := func() {
		Make[uint64](a, 512)
		Make[int32](a, 512)
		Make[byte](a, 2048)
		a.Reset()
	}
	warm()
	allocs := testing.AllocsPerRun(100, warm)
	if allocs != 0 {
		t.Fatalf("arena reuse allocates: %v allocs/run, want 0", allocs)
	}
}

func TestManySmallAllocationsShareChunks(t *testing.T) {
	a := New()
	var slices [][]uint32
	for i := 0; i < 64; i++ {
		slices = append(slices, Make[uint32](a, 32))
	}
	for i, s := range slices {
		for j := range s {
			s[j] = uint32(i)
		}
	}
	for i, s := range slices {
		for j := range s {
			if s[j] != uint32(i) {
				t.Fatalf("slice %d stomped at %d", i, j)
			}
		}
	}
}

// TestResetMergesToHighWater: cycles with different size sequences
// make a slab grow extra chunks; Reset folds them into one chunk per
// type sized to the largest cycle, after which no cycle of the same
// shapes adds a chunk, in any order.
func TestResetMergesToHighWater(t *testing.T) {
	a := New()
	cycles := [][]int{
		{3000, 3000},       // second carve spills into a new chunk
		{100, 5000, 100},   // oversized carve gets its own chunk
		{4096, 1, 4096, 1}, // exactly fills, then spills
		{10},
	}
	run := func(sizes []int) {
		for _, n := range sizes {
			s := Make[uint32](a, n)
			for i := range s {
				if s[i] != 0 {
					t.Fatalf("carve of %d not zeroed at %d", n, i)
				}
				s[i] = 1
			}
			Make[byte](a, n)
		}
		a.Reset()
	}
	for _, c := range cycles {
		run(c)
	}
	if got := a.Chunks(); got != 2 {
		t.Fatalf("after one pass: %d chunks, want one per type (2)", got)
	}
	for pass := 0; pass < 2; pass++ {
		for i := len(cycles) - 1; i >= 0; i-- {
			run(cycles[i])
			if got := a.Chunks(); got != 2 {
				t.Fatalf("pass %d cycle %v grew the arena to %d chunks", pass, cycles[i], got)
			}
		}
	}
	// The merged chunk is sized to the largest cycle, not the sum.
	if s := a.slabs[slabKey{t: reflect.TypeFor[uint32]()}].(*typedSlab[uint32]); len(s.chunks[0]) != 8194 {
		t.Fatalf("merged chunk holds %d elements, want the 8194-element high-water mark", len(s.chunks[0]))
	}
}

// TestSingleChunkNotReallocated: a slab that never grew keeps its
// chunk across Reset, so steady reuse stays allocation-free.
func TestSingleChunkNotReallocated(t *testing.T) {
	a := New()
	s := Make[uint64](a, 10)
	base := &s[0]
	a.Reset()
	if got := &Make[uint64](a, 10)[0]; got != base {
		t.Fatal("Reset replaced a slab that never grew")
	}
}
