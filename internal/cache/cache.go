// Package cache provides the generic set-associative cache model used
// for the private L1 and L2 levels and for the uncompressed LLC
// baseline. Compressed LLC organizations live in package ccache and
// share this package's replacement policies.
//
// The model is a tag store: it tracks presence, dirtiness and reuse of
// 64-byte lines but not their contents (contents are only needed for
// compression decisions, which the LLC organizations obtain from the
// workload's value model). Addresses are byte addresses; the cache
// operates on line addresses internally.
package cache

import (
	"fmt"

	"basevictim/internal/arena"
	"basevictim/internal/policy"
)

// LineBytes is the line size used by every cache in the hierarchy.
const LineBytes = 64

// lineShift converts a byte address to a line address.
const lineShift = 6

// LineAddr converts a byte address to a line address.
func LineAddr(addr uint64) uint64 { return addr >> lineShift }

// Geometry describes a cache's shape.
type Geometry struct {
	SizeBytes int
	Ways      int
}

// Sets returns the number of sets implied by the geometry.
func (g Geometry) Sets() int { return g.SizeBytes / (LineBytes * g.Ways) }

// Validate checks the geometry is realizable.
func (g Geometry) Validate() error {
	if g.SizeBytes <= 0 || g.Ways <= 0 {
		return fmt.Errorf("cache: bad geometry %+v", g)
	}
	sets := g.Sets()
	if sets == 0 || sets*g.Ways*LineBytes != g.SizeBytes {
		return fmt.Errorf("cache: size %d not divisible into %d ways of %dB lines", g.SizeBytes, g.Ways, LineBytes)
	}
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache: set count %d not a power of two", sets)
	}
	return nil
}

// Line is one tag-store entry, as exposed to callers (LineState,
// DumpSet). Internally the store is kept as parallel flat arrays; this
// struct is the exchange format.
type Line struct {
	Tag        uint64 // full line address; valid only if Valid
	Valid      bool
	Dirty      bool
	Reused     bool // hit at least once since fill (drives CHAR hints)
	Prefetched bool // filled by a prefetch and not yet demanded
}

// Eviction describes a line displaced by a fill.
type Eviction struct {
	Addr   uint64 // line address
	Dirty  bool
	Reused bool
	Valid  bool // false if the fill used an empty way
}

// Stats counts cache events.
type Stats struct {
	Accesses    uint64
	Hits        uint64
	Misses      uint64
	Fills       uint64
	Evictions   uint64
	Writebacks  uint64 // dirty evictions
	Invalidates uint64
}

// MissRate returns misses/accesses, or 0 for an idle cache.
func (s Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// invalidTag marks an empty way. Line addresses are byte addresses
// shifted right by 6, so the all-ones value is unreachable; this lets
// the hit scan compare tags without a separate valid check. Address 0
// remains a perfectly valid line.
const invalidTag = ^uint64(0)

// Per-line flag bits, stored one byte per way alongside the tag array.
const (
	metaDirty uint8 = 1 << iota
	metaReused
	metaPrefetched
)

// Cache is a set-associative tag store with a pluggable replacement
// policy.
//
// The tag store is structure-of-arrays: the per-access hit scan walks
// a dense uint64 tag array (one cache line covers an 8-way set) and
// the flag bytes are only touched on the way that matters. The
// MissObserver capability is resolved once instead of per miss.
type Cache struct {
	geom   Geometry
	sets   int
	ways   int
	tags   []uint64 // [set*ways + way]; invalidTag = empty
	meta   []uint8  // [set*ways + way] flag bits
	pol    policy.Policy
	onMiss policy.MissObserver // cached capability; nil if not implemented
	Stats  Stats
}

// New builds a cache with the given geometry and replacement policy
// factory.
func New(geom Geometry, newPolicy policy.Factory) (*Cache, error) {
	return NewIn(nil, geom, newPolicy)
}

// NewIn is New with the tag store carved from the arena (nil falls
// back to the heap). The policy still allocates normally; factories
// are external code.
func NewIn(a *arena.Arena, geom Geometry, newPolicy policy.Factory) (*Cache, error) {
	if err := geom.Validate(); err != nil {
		return nil, err
	}
	sets := geom.Sets()
	c := &Cache{
		geom: geom,
		sets: sets,
		ways: geom.Ways,
		tags: arena.Make[uint64](a, sets*geom.Ways),
		meta: arena.Make[uint8](a, sets*geom.Ways),
		pol:  newPolicy(sets, geom.Ways),
	}
	for i := range c.tags {
		c.tags[i] = invalidTag
	}
	c.onMiss, _ = c.pol.(policy.MissObserver)
	return c, nil
}

// MustNew is New but panics on error; for tests and fixed configs.
func MustNew(geom Geometry, newPolicy policy.Factory) *Cache {
	c, err := New(geom, newPolicy)
	if err != nil {
		panic(err)
	}
	return c
}

// Geometry returns the cache's shape.
func (c *Cache) Geometry() Geometry { return c.geom }

// Sets returns the number of sets.
func (c *Cache) Sets() int { return c.sets }

// Policy exposes the replacement policy (for hint delivery).
func (c *Cache) Policy() policy.Policy { return c.pol }

// SetIndex returns the set for a line address.
func (c *Cache) SetIndex(lineAddr uint64) int { return int(lineAddr & uint64(c.sets-1)) }

// Probe reports whether the line is present, without touching
// replacement state or statistics. Used for inclusion checks and
// prefetch filtering.
func (c *Cache) Probe(lineAddr uint64) (way int, hit bool) {
	base := c.SetIndex(lineAddr) * c.ways
	for w, t := range c.tags[base : base+c.ways] {
		if t == lineAddr {
			return w, true
		}
	}
	return -1, false
}

// Access performs a demand read or write lookup. On a hit the
// replacement state is updated and a write marks the line dirty. The
// caller handles the miss path (fetch + Fill).
//
//bv:steadystate
func (c *Cache) Access(lineAddr uint64, write bool) bool {
	c.Stats.Accesses++
	set := c.SetIndex(lineAddr)
	base := set * c.ways
	for w, t := range c.tags[base : base+c.ways] {
		if t == lineAddr {
			c.Stats.Hits++
			m := &c.meta[base+w]
			f := (*m | metaReused) &^ metaPrefetched
			if write {
				f |= metaDirty
			}
			*m = f
			c.pol.OnHit(set, w)
			return true
		}
	}
	c.Stats.Misses++
	if c.onMiss != nil {
		c.onMiss.OnMiss(set)
	}
	return false
}

// Fill installs a line, evicting if necessary, and returns the
// eviction. Invalid ways are used before the policy is consulted.
// dirty marks the new line dirty (e.g. a writeback allocation);
// prefetched marks it as brought in by a prefetcher.
//
//bv:steadystate
func (c *Cache) Fill(lineAddr uint64, dirty, prefetched bool) Eviction {
	c.Stats.Fills++
	set := c.SetIndex(lineAddr)
	base := set * c.ways
	// One fused scan finds both an existing copy and the first empty
	// way.
	invalid := -1
	for w, t := range c.tags[base : base+c.ways] {
		if t == lineAddr {
			// Refill over an existing copy just updates flags (can
			// happen when a prefetch races a demand fill in the
			// simplified timing model).
			if dirty {
				c.meta[base+w] |= metaDirty
			}
			c.pol.OnFill(set, w)
			return Eviction{}
		}
		if t == invalidTag && invalid < 0 {
			invalid = w
		}
	}
	way := invalid
	var ev Eviction
	if way < 0 {
		way = c.pol.Victim(set)
		m := c.meta[base+way]
		ev = Eviction{Addr: c.tags[base+way], Dirty: m&metaDirty != 0, Reused: m&metaReused != 0, Valid: true}
		c.Stats.Evictions++
		if m&metaDirty != 0 {
			c.Stats.Writebacks++
		}
	}
	c.tags[base+way] = lineAddr
	var m uint8
	if dirty {
		m = metaDirty
	}
	if prefetched {
		m |= metaPrefetched
	}
	c.meta[base+way] = m
	c.pol.OnFill(set, way)
	return ev
}

// Writeback marks the line dirty if present, without touching
// statistics or replacement state. It models a dirty eviction arriving
// from the level above; inclusion normally guarantees presence.
func (c *Cache) Writeback(lineAddr uint64) bool {
	way, hit := c.Probe(lineAddr)
	if !hit {
		return false
	}
	// A writeback proves the level above used the line; that liveness
	// feeds the L2 eviction hints.
	c.meta[c.SetIndex(lineAddr)*c.ways+way] |= metaDirty | metaReused
	return true
}

// Invalidate removes the line if present (back-invalidation from an
// inclusive outer level). It returns whether the line was present and
// whether it was dirty (the dirty data must be forwarded outward).
func (c *Cache) Invalidate(lineAddr uint64) (present, dirty bool) {
	set := c.SetIndex(lineAddr)
	way, hit := c.Probe(lineAddr)
	if !hit {
		return false, false
	}
	i := set*c.ways + way
	dirty = c.meta[i]&metaDirty != 0
	c.tags[i] = invalidTag
	c.meta[i] = 0
	c.Stats.Invalidates++
	c.pol.OnInvalidate(set, way)
	return true, dirty
}

// lineAt materializes the exchange struct for one way.
func (c *Cache) lineAt(i int) Line {
	if c.tags[i] == invalidTag {
		return Line{}
	}
	m := c.meta[i]
	return Line{
		Tag:        c.tags[i],
		Valid:      true,
		Dirty:      m&metaDirty != 0,
		Reused:     m&metaReused != 0,
		Prefetched: m&metaPrefetched != 0,
	}
}

// LineState returns a copy of the tag-store entry holding lineAddr.
func (c *Cache) LineState(lineAddr uint64) (Line, bool) {
	if way, hit := c.Probe(lineAddr); hit {
		return c.lineAt(c.SetIndex(lineAddr)*c.ways + way), true
	}
	return Line{}, false
}

// DumpSet appends a copy of one set's lines, indexed by way, to dst;
// the lockstep shadow comparison in internal/check reads sets this way.
func (c *Cache) DumpSet(set int, dst []Line) []Line {
	for i := set * c.ways; i < (set+1)*c.ways; i++ {
		dst = append(dst, c.lineAt(i))
	}
	return dst
}

// Occupancy returns the number of valid lines (for tests and capacity
// studies).
func (c *Cache) Occupancy() int {
	n := 0
	for _, t := range c.tags {
		if t != invalidTag {
			n++
		}
	}
	return n
}

// ForEachValid visits every valid line; used by inclusion checks.
func (c *Cache) ForEachValid(fn func(lineAddr uint64, dirty bool)) {
	for i, t := range c.tags {
		if t != invalidTag {
			fn(t, c.meta[i]&metaDirty != 0)
		}
	}
}
