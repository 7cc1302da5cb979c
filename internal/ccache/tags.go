package ccache

import "basevictim/internal/arena"

// invalidAddr marks an empty tag slot in a tagStore. Line addresses
// are byte addresses shifted right by 6, so the all-ones value is
// unreachable. segs cannot double as the validity bit because a valid
// all-zero line legitimately has segs == 0.
const invalidAddr = ^uint64(0)

// tagGroup is the arena group of the organizations' tag arrays.
const tagGroup = "ccache.tags"

// tagStore is a structure-of-arrays tag partition. The per-access find
// scan — the hottest code in every organization — walks only the dense
// address array; dirty bits and sizes live in sidecar arrays touched
// only for the way that matters. The AoS tag struct remains the
// exchange format (get/put) for inspection, corruption and the mirror
// tests, and for the organizations (twotag, vsc) whose logical-way
// indexing did not justify the rewrite.
type tagStore struct {
	addrs []uint64 // invalidAddr = empty slot
	dirty []bool
	segs  []uint8 // 0..WaySegments
}

// newTagStore carves the arrays from the arena's tag group: their size
// depends on the organization, so it stays out of the way of the run's
// fixed-size carves (see arena.MakeGroup).
func newTagStore(a *arena.Arena, n int) tagStore {
	s := tagStore{
		addrs: arena.MakeGroup[uint64](a, tagGroup, n),
		dirty: arena.MakeGroup[bool](a, tagGroup, n),
		segs:  arena.MakeGroup[uint8](a, tagGroup, n),
	}
	for i := range s.addrs {
		s.addrs[i] = invalidAddr
	}
	return s
}

// find scans ways slots starting at base for lineAddr and returns the
// way offset, or -1.
//
//bv:steadystate
func (s *tagStore) find(base, ways int, lineAddr uint64) int {
	for w, a := range s.addrs[base : base+ways] {
		if a == lineAddr {
			return w
		}
	}
	return -1
}

// firstInvalid returns the lowest empty way offset in [base,
// base+ways), or -1 when the slots are all full.
func (s *tagStore) firstInvalid(base, ways int) int {
	for w, a := range s.addrs[base : base+ways] {
		if a == invalidAddr {
			return w
		}
	}
	return -1
}

func (s *tagStore) valid(i int) bool { return s.addrs[i] != invalidAddr }

// get materializes the exchange struct for slot i. Invalid slots
// come back as the zero tag (the stale address is not preserved
// across invalidation, which no consumer observes).
func (s *tagStore) get(i int) tag {
	if s.addrs[i] == invalidAddr {
		return tag{}
	}
	return tag{addr: s.addrs[i], valid: true, dirty: s.dirty[i], segs: int(s.segs[i])}
}

// put stores the exchange struct into slot i.
func (s *tagStore) put(i int, t tag) {
	if !t.valid {
		s.invalidate(i)
		return
	}
	s.addrs[i] = t.addr
	s.dirty[i] = t.dirty
	s.segs[i] = uint8(t.segs)
}

func (s *tagStore) invalidate(i int) {
	s.addrs[i] = invalidAddr
	s.dirty[i] = false
	s.segs[i] = 0
}

// count returns the number of valid slots.
func (s *tagStore) count() int {
	n := 0
	for _, a := range s.addrs {
		if a != invalidAddr {
			n++
		}
	}
	return n
}

// corrupt XORs bits into the address of a valid slot (fault
// injection); it mirrors corruptTag over the SoA layout.
func (s *tagStore) corrupt(i int, xor uint64) bool {
	if i < 0 || i >= len(s.addrs) || s.addrs[i] == invalidAddr {
		return false
	}
	s.addrs[i] ^= xor
	return true
}
