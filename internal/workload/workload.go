// Package workload provides the synthetic trace suite standing in for
// the paper's 100 proprietary trace phases (Table I): SPECCPU 2006 FP
// and Integer, Productivity and Client categories, with 60 traces
// flagged cache-sensitive, plus the 20 four-way multi-program mixes.
//
// Each profile is a deterministic generator: an access-pattern model
// (hot set, streams, pointer-chasing dependence) and a value model
// that synthesizes actual 64-byte line contents and compresses them
// with the real BDI implementation, so compressed sizes come from the
// algorithm the paper uses rather than from a distribution. Profiles
// are calibrated to the paper's aggregate compressibility: the
// compression-friendly traces average ~50% of the uncompressed size,
// the unfriendly ten >75%, and the sensitive set ~55% overall.
package workload

import (
	"encoding/binary"

	"basevictim/internal/arena"
	"basevictim/internal/compress"
	"basevictim/internal/trace"
)

// Category is a Table I workload category.
type Category int

// Categories from Table I.
const (
	FSPEC Category = iota
	ISPEC
	Productivity
	Client
)

// String implements fmt.Stringer.
func (c Category) String() string {
	switch c {
	case FSPEC:
		return "SPECFP"
	case ISPEC:
		return "SPECINT"
	case Productivity:
		return "Productivity"
	case Client:
		return "Client"
	}
	return "Unknown"
}

// ValueClass is the content family a line belongs to, which determines
// its BDI-compressed size.
type ValueClass int

// Value classes, most to least compressible.
const (
	VZero   ValueClass = iota // all-zero line
	VNarrow                   // 4-byte elements near a common base (B4D1)
	VDelta                    // 8-byte elements, 2-byte deltas (B8D2)
	VWide                     // 8-byte elements, 4-byte deltas (B8D4)
	VRandom                   // incompressible
)

// CompressMix gives the probability of each value class; the remainder
// to 1.0 is VRandom.
type CompressMix struct {
	Zero, Narrow, Delta, Wide float64
}

// Friendly is a compression-friendly mix, calibrated so the average
// BDI-compressed block is ~50% of the uncompressed size (Section VI.A).
func Friendly() CompressMix { return CompressMix{Zero: 0.12, Narrow: 0.35, Delta: 0.18, Wide: 0.20} }

// Unfriendly compresses poorly: >75% of raw size on average, matching
// the paper's ten compression-unfriendly traces.
func Unfriendly() CompressMix { return CompressMix{Zero: 0.02, Narrow: 0.05, Delta: 0.08, Wide: 0.25} }

// Profile describes one synthetic trace phase.
type Profile struct {
	Name     string
	Category Category
	Seed     uint64

	// Access pattern.
	MemRatio   float64 // fraction of instructions that touch memory
	StoreFrac  float64 // fraction of memory ops that are stores
	DepFrac    float64 // fraction of loads that are dependence-critical
	HotLines   int     // hot working set, in 64B lines
	TotalLines int     // full data footprint, in 64B lines
	HotFrac    float64 // probability an access targets the hot set
	StreamFrac float64 // probability an access continues a sequential stream

	// ReuseFrac is the probability an access re-touches a recently
	// used line, with an exponentially decaying lookback over the
	// last ReuseWindow memory accesses. This is the stack-distance
	// component that gives recency-based replacement (LRU/NRU) its
	// value — and is what the two-tag organizations destroy when they
	// victimize MRU partner lines (Section III).
	ReuseFrac   float64
	ReuseWindow int

	// Value behaviour.
	Mix        CompressMix
	WriteChurn float64 // probability a writeback changes the line's class

	// Sensitive marks the trace as cache-sensitive (the 60 traces all
	// headline results use).
	Sensitive bool
}

// splitmix64 is the seed scrambler used everywhere for determinism.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// rng is a tiny xorshift generator; math/rand is avoided in the hot
// path for speed and to keep the package self-contained.
type rng struct{ s uint64 }

func newRNG(seed uint64) *rng {
	s := splitmix64(seed)
	if s == 0 {
		s = 1
	}
	return &rng{s: s}
}

func (r *rng) next() uint64 {
	r.s ^= r.s << 13
	r.s ^= r.s >> 7
	r.s ^= r.s << 17
	return r.s
}

func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// Generator produces the profile's instruction stream. It implements
// trace.Stream.
type Generator struct {
	p       Profile
	r       *rng
	streams [4]uint64 // sequential stream cursors (line addresses)
	hist    []uint64  // ring of recently accessed lines (reuse model)
	histPos int
	histLen int

	// Integer decision thresholds. Historically every branch compared
	// rng.float() < p; since float() is exactly k/2^53 for the 53-bit
	// draw k, that comparison is equivalent to k < ceil(p*2^53)
	// (scaling by a power of two is exact in float64), so the hot loop
	// draws k once and compares integers. thresh pins the equivalence.
	memT, storeT, depT    uint64
	streamT, reuseT, hotT uint64 // cumulative pickLine cutoffs
}

// thresh converts a probability threshold to the equivalent integer
// cutoff for a 53-bit rng draw: k < thresh(p) iff float64(k)/2^53 < p.
func thresh(p float64) uint64 {
	t := p * (1 << 53)
	u := uint64(t)
	if float64(u) < t {
		u++
	}
	return u
}

// Stream returns a fresh deterministic generator for the profile.
func (p Profile) Stream() *Generator { return p.StreamIn(nil) }

// StreamIn is Stream with the reuse history carved from the arena (nil
// falls back to the heap), so the generator's largest buffer lives and
// dies with the run that owns it.
func (p Profile) StreamIn(a *arena.Arena) *Generator {
	g := &Generator{p: p, r: newRNG(p.Seed)}
	for i := range g.streams {
		g.streams[i] = uint64(g.r.intn(p.TotalLines))
	}
	if p.ReuseWindow > 0 && p.ReuseFrac > 0 {
		g.hist = arena.Make[uint64](a, p.ReuseWindow)
	}
	g.memT = thresh(p.MemRatio)
	g.storeT = thresh(p.StoreFrac)
	g.depT = thresh(p.DepFrac)
	// The cutoffs replicate pickLine's cumulative float64 sums exactly:
	// the sums are evaluated in float64 first, then scaled.
	g.streamT = thresh(p.StreamFrac)
	g.reuseT = thresh(p.StreamFrac + p.ReuseFrac)
	g.hotT = thresh(p.StreamFrac + p.ReuseFrac + p.HotFrac)
	return g
}

// Next implements trace.Stream. The stream is infinite; the caller
// bounds it (trace.Limit or the core's maxIns).
//
//bv:steadystate
func (g *Generator) Next() (trace.Op, bool) {
	if g.r.next()>>11 >= g.memT {
		return trace.Op{Kind: trace.Exec}, true
	}
	line := g.pickLine()
	if g.hist != nil {
		g.hist[g.histPos] = line
		g.histPos = (g.histPos + 1) % len(g.hist)
		if g.histLen < len(g.hist) {
			g.histLen++
		}
	}
	addr := line*64 + uint64(g.r.intn(8))*8
	if g.r.next()>>11 < g.storeT {
		return trace.Op{Kind: trace.Store, Addr: addr}, true
	}
	return trace.Op{Kind: trace.Load, Addr: addr, Dep: g.r.next()>>11 < g.depT}, true
}

//bv:steadystate
func (g *Generator) pickLine() uint64 {
	k := g.r.next() >> 11
	switch {
	case k < g.streamT:
		i := g.r.intn(len(g.streams))
		g.streams[i]++
		if g.streams[i] >= uint64(g.p.TotalLines) {
			g.streams[i] = 0
		}
		return g.streams[i]
	case k < g.reuseT && g.histLen > 0:
		return g.reuseLine()
	case k < g.hotT:
		return uint64(g.r.intn(g.p.HotLines))
	default:
		return uint64(g.r.intn(g.p.TotalLines))
	}
}

// reuseLine samples a recently used line with an exponentially
// decaying lookback (mean ReuseWindow/4): the most recently touched
// lines are by far the most likely to be re-touched, which is exactly
// the temporal locality LRU-family policies exploit.
func (g *Generator) reuseLine() uint64 {
	mean := float64(len(g.hist)) / 4
	// Inverse-CDF exponential from a uniform in (0,1].
	u := g.r.float()
	if u <= 0 {
		u = 0.5
	}
	back := 1 + int(-mean*logApprox(u))
	if back > g.histLen {
		back = g.histLen
	}
	idx := (g.histPos - back + len(g.hist)*2) % len(g.hist)
	return g.hist[idx]
}

// logApprox is a cheap natural-log approximation adequate for sampling
// (we avoid math.Log in the hot path; relative error < 1e-6).
func logApprox(x float64) float64 {
	// Decompose x = m * 2^e with m in [1,2), then ln x = ln m + e ln 2.
	e := 0
	for x < 1 {
		x *= 2
		e--
	}
	for x >= 2 {
		x /= 2
		e++
	}
	// Atanh-based series for ln m on [1,2).
	t := (x - 1) / (x + 1)
	t2 := t * t
	s := t * (1 + t2*(1.0/3+t2*(1.0/5+t2*(1.0/7+t2*(1.0/9+t2/11)))))
	return 2*s + float64(e)*0.6931471805599453
}

// Values is the profile's value model: it synthesizes line contents
// per (line, generation) and compresses them with a real compressor
// (BDI by default), memoizing the resulting segment counts. It
// implements hierarchy.Sizer. A Values is owned by one run; it is not
// safe for concurrent use (parallel sessions build one per run).
type Values struct {
	p    Profile
	comp compress.Compressor
	// gen0 memoizes generation-0 sizes for the data footprint — the
	// overwhelmingly common Segments query — in a flat slice (-1 =
	// not yet sized), avoiding per-run map churn on the hot path.
	gen0 []int8
	// memoKey/memoVal cover everything gen0 cannot: written lines
	// (gen > 0) and lines outside the footprint (instruction fetches,
	// offset multi-program address spaces). Keys are (line, gen) packed
	// as line<<genBits | gen; every shipped address layout stays well
	// under the line<2^44 bound (the widest is the multi-program
	// AddrOffset at 4<<44 bytes, line ~2^40), and a generation would
	// need a million write-backs of one line to overflow genBits, so
	// out-of-range pairs are simply sized unmemoized. The cache is
	// direct-mapped rather than an exact map: sizes are pure functions
	// of the key, so a collision just recomputes, and a fixed footprint
	// keeps the lookup one predictable probe instead of a growing
	// open-addressed table that churn workloads push out of the host's
	// caches. An all-ones key marks an empty slot (a real all-ones key
	// would need line = 2^44-1 at gen = 2^20-1; it would merely never
	// cache).
	memoKey []uint64
	memoVal []int8
	buf     []byte
}

// memoCacheBits sizes the direct-mapped (line, gen) size cache.
const (
	memoCacheBits = 17
	memoCacheSize = 1 << memoCacheBits
)

// memoIdx maps a packed key to its cache slot.
func memoIdx(key uint64) int {
	return int((key * 0x9E3779B97F4A7C15) >> (64 - memoCacheBits))
}

// genBits is the width of the generation field in packed memo keys.
const genBits = 20

// packKey packs (line, gen) into a single memo key. ok is false when
// the pair does not fit, in which case the caller skips memoization.
func packKey(line uint64, gen uint32) (uint64, bool) {
	if line >= 1<<(64-genBits) || gen >= 1<<genBits {
		return 0, false
	}
	return line<<genBits | uint64(gen), true
}

// Values returns the profile's value model under BDI, the paper's
// compression algorithm.
func (p Profile) Values() *Values { return p.ValuesWith(nil) }

// gen0MemoCap bounds the flat generation-0 memo so huge footprints do
// not pre-allocate more than 1 MB per run.
const gen0MemoCap = 1 << 20

// ValuesWith returns the value model sized by the given compressor
// (nil means BDI). Swapping the compressor is the paper's
// "algorithms are orthogonal to the architecture" knob.
func (p Profile) ValuesWith(c compress.Compressor) *Values { return p.ValuesIn(nil, c) }

// ValuesIn is ValuesWith with the memos carved from the arena (nil
// falls back to the heap). They are the largest per-run buffers, about
// 2 MB, so a process running many simulations keeps them in its
// recycled arena instead of leaving them to the collector.
func (p Profile) ValuesIn(a *arena.Arena, c compress.Compressor) *Values {
	if c == nil {
		c = compress.NewBDI()
	}
	n := p.TotalLines
	if n > gen0MemoCap {
		n = gen0MemoCap
	}
	gen0 := arena.Make[int8](a, n)
	for i := range gen0 {
		gen0[i] = -1
	}
	memoKey := arena.Make[uint64](a, memoCacheSize)
	for i := range memoKey {
		memoKey[i] = ^uint64(0)
	}
	return &Values{
		p:       p,
		comp:    c,
		gen0:    gen0,
		memoKey: memoKey,
		memoVal: arena.Make[int8](a, memoCacheSize),
		buf:     arena.Make[byte](a, compress.LineSize),
	}
}

// classOf assigns a value class from the profile's mix. Write churn
// re-rolls the class with a generation-dependent hash.
func (v *Values) classOf(line uint64, gen uint32) ValueClass {
	h := splitmix64(line ^ v.p.Seed)
	if gen > 0 && float64(splitmix64(line^uint64(gen)<<32)>>11)/(1<<53) < v.p.WriteChurn {
		h = splitmix64(h ^ uint64(gen))
	}
	f := float64(h>>11) / (1 << 53)
	m := v.p.Mix
	switch {
	case f < m.Zero:
		return VZero
	case f < m.Zero+m.Narrow:
		return VNarrow
	case f < m.Zero+m.Narrow+m.Delta:
		return VDelta
	case f < m.Zero+m.Narrow+m.Delta+m.Wide:
		return VWide
	default:
		return VRandom
	}
}

// FillLine writes the synthetic contents of (line, gen) into dst,
// which must be 64 bytes. Exported so examples can show the actual
// bytes being compressed.
func (v *Values) FillLine(dst []byte, line uint64, gen uint32) ValueClass {
	class := v.classOf(line, gen)
	v.fillClass(dst, line, gen, class)
	return class
}

// fillClass synthesizes the line contents for an already-resolved
// class (so callers that need the class anyway pay for classOf once).
func (v *Values) fillClass(dst []byte, line uint64, gen uint32, class ValueClass) {
	r := newRNG(line ^ uint64(gen)<<40 ^ v.p.Seed<<1)
	switch class {
	case VZero:
		for i := range dst {
			dst[i] = 0
		}
	case VNarrow:
		base := uint32(r.next())
		for i := 0; i < 16; i++ {
			binary.LittleEndian.PutUint32(dst[i*4:], base+uint32(r.intn(100)))
		}
	case VDelta:
		base := r.next()
		for i := 0; i < 8; i++ {
			binary.LittleEndian.PutUint64(dst[i*8:], base+uint64(r.intn(20000)))
		}
	case VWide:
		base := r.next()
		for i := 0; i < 8; i++ {
			binary.LittleEndian.PutUint64(dst[i*8:], base+uint64(r.next()&0x3FFFFFFF))
		}
	default:
		for i := 0; i < 8; i++ {
			binary.LittleEndian.PutUint64(dst[i*8:], r.next())
		}
	}
}

// Segments implements the hierarchy's Sizer: the BDI-compressed size
// of the line's current contents, in 4-byte segments.
//
//bv:steadystate
func (v *Values) Segments(line uint64, gen uint32) int {
	if gen == 0 && line < uint64(len(v.gen0)) {
		if s := v.gen0[line]; s >= 0 {
			return int(s)
		}
		segs := v.size(line, 0)
		v.gen0[line] = int8(segs)
		return segs
	}
	key, fits := packKey(line, gen)
	if !fits {
		return v.size(line, gen)
	}
	i := memoIdx(key)
	if v.memoKey[i] == key {
		return int(v.memoVal[i])
	}
	segs := v.size(line, gen)
	v.memoKey[i] = key
	v.memoVal[i] = int8(segs)
	return segs
}

// size synthesizes and compresses the line's contents (no memo).
func (v *Values) size(line uint64, gen uint32) int {
	class := v.classOf(line, gen)
	if class == VZero {
		// fillClass writes all zeros for VZero, so the path below
		// would answer 0 through IsZeroLine; skip the synthesis and
		// the compressor entirely.
		return 0
	}
	v.fillClass(v.buf, line, gen, class)
	// Non-zero classes can still (astronomically rarely) synthesize an
	// all-zero line; IsZeroLine is part of the result's meaning, not
	// an optimization (SegmentsFor maps a 0-byte encoding to 1).
	if compress.IsZeroLine(v.buf) {
		return 0
	}
	return compress.SegmentsFor(v.comp.CompressedSize(v.buf), 4)
}

// MeanCompressedRatio estimates the average compressed-to-raw size
// ratio over the first n lines of the footprint (generation 0).
func (v *Values) MeanCompressedRatio(n int) float64 {
	if n <= 0 {
		return 0
	}
	total := 0
	for i := 0; i < n; i++ {
		s := v.Segments(uint64(i), 0)
		if s == 0 {
			s = 1 // a zero line still stores a size code
		}
		total += s
	}
	return float64(total) / float64(n*16)
}
