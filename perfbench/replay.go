package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"basevictim/internal/ccache"
	"basevictim/internal/compress"
	"basevictim/internal/cpu"
	"basevictim/internal/dram"
	"basevictim/internal/hierarchy"
	"basevictim/internal/policy"
	"basevictim/internal/prefetch"
	"basevictim/internal/sim"
	"basevictim/internal/trace"
	"basevictim/internal/workload"
)

// The traced run measures each simulator layer from outside. An
// untimed pass rebuilds a run from the public constructors (as
// sim.RunSingleCtx does) with a recording wrapper at every interface
// boundary the hierarchy exposes: the op stream into the core, the
// core's Load/Store/Fetch calls, the LLC organization's calls and the
// value model's Segments calls. Each stream is then replayed into a
// fresh instance of its layer and timed.
//
// Two layers have no public boundary inside a run. DRAM is a concrete
// type, so its stream is rebuilt from the LLC results: every demand or
// prefetch read that missed becomes a read, every writeback a write,
// timed at the core call that caused it. The prefetchers sit inside the
// hierarchy, so the LLC prefetcher is replayed on the LLC read stream,
// the nearest recorded stream to its training input.

const (
	memLoad = iota
	memStore
	memFetch
)

type memCall struct {
	kind uint8
	now  uint64
	addr uint64
}

const (
	llcAccess = iota
	llcFill
	llcContains
	llcContainsBase
	llcHint
)

type llcCall struct {
	kind uint8
	flag bool // write (access), dirty (fill), dead (hint)
	segs int32
	line uint64
}

type segCall struct {
	line uint64
	gen  uint32
	out  int32 // the answer the run got
}

// llcOut is the result one recorded organization call returned. The
// Writebacks, BackInvals and Evicted lists are ranges of the
// recording's pool.
type llcOut struct {
	flags     uint8
	dataMoves int32
	lists     [3][2]uint32
}

const (
	outHit = 1 << iota
	outVictimHit
	outDecompress
	outPartnerWrite
	outTrue // Contains / ContainsBase answered true
)

type dramCall struct {
	now   uint64
	line  uint64
	write bool
}

// recording is every stream captured from one run, plus the run's own
// end state for the fidelity checks.
type recording struct {
	job  simJob
	now  uint64 // time of the core call in progress
	ops  []trace.Op
	mem  []memCall
	llc  []llcCall
	segs []segCall
	dram []dramCall
	out  []llcOut // one per llc call
	pool []uint64

	res      sim.Result
	llcStats ccache.Stats
	memStats dram.Stats
	hStats   hierarchy.Stats
	pfIssued uint64
	pfUseful uint64
}

type recStream struct {
	g   *workload.Generator
	rec *recording
}

func (s *recStream) Next() (trace.Op, bool) {
	op, ok := s.g.Next()
	s.rec.ops = append(s.rec.ops, op)
	return op, ok
}

type recMem struct {
	h   *hierarchy.Hierarchy
	rec *recording
}

func (m *recMem) call(kind uint8, now, addr uint64) {
	m.rec.now = now
	m.rec.mem = append(m.rec.mem, memCall{kind, now, addr})
}

func (m *recMem) Load(now, addr uint64) uint64 {
	m.call(memLoad, now, addr)
	return m.h.Load(now, addr)
}

func (m *recMem) Store(now, addr uint64) uint64 {
	m.call(memStore, now, addr)
	return m.h.Store(now, addr)
}

func (m *recMem) Fetch(now, addr uint64) uint64 {
	m.call(memFetch, now, addr)
	return m.h.Fetch(now, addr)
}

type recSizer struct {
	inner hierarchy.Sizer
	rec   *recording
}

func (s *recSizer) Segments(line uint64, gen uint32) int {
	n := s.inner.Segments(line, gen)
	s.rec.segs = append(s.rec.segs, segCall{line, gen, int32(n)})
	return n
}

// recOrg records every call into an organization. It unwraps to the
// organization so the hierarchy resolves the same timing as for the
// bare one.
type recOrg struct {
	ccache.Org
	rec *recording
}

func (o *recOrg) Unwrap() ccache.Org { return o.Org }

func (o *recOrg) Access(line uint64, write bool, segs int) *ccache.Result {
	o.rec.llc = append(o.rec.llc, llcCall{kind: llcAccess, flag: write, segs: int32(segs), line: line})
	r := o.Org.Access(line, write, segs)
	if !write && !r.Hit {
		o.rec.dram = append(o.rec.dram, dramCall{now: o.rec.now, line: line})
	}
	o.result(r)
	return r
}

func (o *recOrg) Fill(line uint64, segs int, dirty bool) *ccache.Result {
	o.rec.llc = append(o.rec.llc, llcCall{kind: llcFill, flag: dirty, segs: int32(segs), line: line})
	r := o.Org.Fill(line, segs, dirty)
	o.result(r)
	return r
}

// result records what an Access or Fill returned, and turns its
// writebacks into DRAM writes at time 0, as the hierarchy posts them.
func (o *recOrg) result(r *ccache.Result) {
	for _, wb := range r.Writebacks {
		o.rec.dram = append(o.rec.dram, dramCall{line: wb, write: true})
	}
	out := llcOut{dataMoves: int32(r.DataMoves)}
	for _, f := range [...]struct {
		set  bool
		flag uint8
	}{{r.Hit, outHit}, {r.VictimHit, outVictimHit}, {r.Decompress, outDecompress}, {r.PartnerWrite, outPartnerWrite}} {
		if f.set {
			out.flags |= f.flag
		}
	}
	for i, l := range [3][]uint64{r.Writebacks, r.BackInvals, r.Evicted} {
		out.lists[i][0] = uint32(len(o.rec.pool))
		o.rec.pool = append(o.rec.pool, l...)
		out.lists[i][1] = uint32(len(o.rec.pool))
	}
	o.rec.out = append(o.rec.out, out)
}

func (o *recOrg) answer(b bool) bool {
	out := llcOut{}
	if b {
		out.flags = outTrue
	}
	o.rec.out = append(o.rec.out, out)
	return b
}

func (o *recOrg) Contains(line uint64) bool {
	o.rec.llc = append(o.rec.llc, llcCall{kind: llcContains, line: line})
	return o.answer(o.Org.Contains(line))
}

func (o *recOrg) ContainsBase(line uint64) bool {
	o.rec.llc = append(o.rec.llc, llcCall{kind: llcContainsBase, line: line})
	return o.answer(o.Org.ContainsBase(line))
}

// recHintOrg is recOrg for organizations that take eviction hints; the
// hierarchy only sends hints to organizations that implement them.
type recHintOrg struct {
	*recOrg
	hinter ccache.EvictionHinter
}

func (o *recHintOrg) HintEviction(line uint64, dead bool) {
	o.rec.llc = append(o.rec.llc, llcCall{kind: llcHint, flag: dead, line: line})
	o.rec.out = append(o.rec.out, llcOut{})
	o.hinter.HintEviction(line, dead)
}

// playOrg answers the hierarchy's organization calls with the recorded
// results instead of doing the work, so a hierarchy replay over it
// times everything but the organization and the value model in place.
// The embedded organization is a fresh one of the recorded kind: it
// answers the constant queries and gives the hierarchy the same timing
// parameters.
type playOrg struct {
	ccache.Org
	rec     *recording
	i       int
	res     ccache.Result
	diverge bool
}

func (o *playOrg) Unwrap() ccache.Org { return o.Org }

// next returns the recorded result of the next call, noting any
// departure from the recorded call sequence.
func (o *playOrg) next(kind uint8, line uint64) llcOut {
	if o.i >= len(o.rec.llc) {
		o.diverge = true
		return llcOut{}
	}
	c := o.rec.llc[o.i]
	out := o.rec.out[o.i]
	o.i++
	if c.kind != kind || c.line != line {
		o.diverge = true
	}
	return out
}

func (o *playOrg) result(out llcOut) *ccache.Result {
	r := &o.res
	r.Hit = out.flags&outHit != 0
	r.VictimHit = out.flags&outVictimHit != 0
	r.Decompress = out.flags&outDecompress != 0
	r.PartnerWrite = out.flags&outPartnerWrite != 0
	r.DataMoves = int(out.dataMoves)
	p := o.rec.pool
	r.Writebacks = p[out.lists[0][0]:out.lists[0][1]]
	r.BackInvals = p[out.lists[1][0]:out.lists[1][1]]
	r.Evicted = p[out.lists[2][0]:out.lists[2][1]]
	return r
}

func (o *playOrg) Access(line uint64, _ bool, _ int) *ccache.Result {
	return o.result(o.next(llcAccess, line))
}

func (o *playOrg) Fill(line uint64, _ int, _ bool) *ccache.Result {
	return o.result(o.next(llcFill, line))
}

func (o *playOrg) Contains(line uint64) bool {
	return o.next(llcContains, line).flags&outTrue != 0
}

func (o *playOrg) ContainsBase(line uint64) bool {
	return o.next(llcContainsBase, line).flags&outTrue != 0
}

type playHintOrg struct{ *playOrg }

func (o playHintOrg) HintEviction(line uint64, _ bool) { o.next(llcHint, line) }

// playSizer answers Segments calls with the recorded sizes.
type playSizer struct {
	rec     *recording
	i       int
	diverge bool
}

func (s *playSizer) Segments(line uint64, gen uint32) int {
	if s.i >= len(s.rec.segs) {
		s.diverge = true
		return 0
	}
	c := s.rec.segs[s.i]
	s.i++
	if c.line != line || c.gen != gen {
		s.diverge = true
	}
	return int(c.out)
}

// newOrg builds the organization sim.RunSingleCtx would build for cfg
// (checking and fault injection off).
func newOrg(cfg sim.Config) (ccache.Org, error) {
	pf, err := policy.ByName(cfg.Policy)
	if err != nil {
		return nil, err
	}
	vName := cfg.VictimPolicy
	if vName == "" {
		vName = "ecm"
	}
	vf, err := policy.VictimByName(vName)
	if err != nil {
		return nil, err
	}
	cc := ccache.Config{SizeBytes: cfg.LLCSizeBytes, Ways: cfg.LLCWays, Policy: pf, Victim: vf,
		Inclusive: cfg.Inclusive, Seed: 1}
	switch cfg.Org {
	case sim.OrgUncompressed:
		return ccache.NewUncompressed(cc)
	case sim.OrgTwoTag:
		return ccache.NewTwoTag(cc)
	case sim.OrgTwoTagMod:
		return ccache.NewTwoTagModified(cc)
	case sim.OrgBaseVictim:
		return ccache.NewBaseVictim(cc)
	case sim.OrgVSC:
		return ccache.NewVSCFunctional(cc)
	}
	return nil, fmt.Errorf("unknown org %q", cfg.Org)
}

func newSizer(p workload.Profile, cfg sim.Config) (hierarchy.Sizer, error) {
	if cfg.Compressor == "" || cfg.Compressor == "bdi" {
		return p.Values(), nil
	}
	c, err := compress.ByName(cfg.Compressor)
	if err != nil {
		return nil, err
	}
	return p.ValuesWith(c), nil
}

func newHierConfig(cfg sim.Config) hierarchy.Config {
	h := hierarchy.DefaultConfig()
	h.EnablePrefetch = cfg.Prefetch
	h.ExtraLLCLatency = cfg.ExtraLLCLatency
	h.ExtraTagCycles = cfg.TagCycles
	h.DecompressCycles = cfg.DecompressCycles
	return h
}

// record runs one job through recording wrappers and returns every
// captured stream with the run's outcome.
func record(ctx context.Context, j simJob) (*recording, error) {
	rec := &recording{job: j}
	org, err := newOrg(j.cfg)
	if err != nil {
		return nil, err
	}
	ro := &recOrg{Org: org, rec: rec}
	var llc ccache.Org = ro
	if h, ok := org.(ccache.EvictionHinter); ok {
		llc = &recHintOrg{recOrg: ro, hinter: h}
	}
	sz, err := newSizer(j.p, j.cfg)
	if err != nil {
		return nil, err
	}
	mem := dram.New(dram.DefaultConfig())
	h, err := hierarchy.New(newHierConfig(j.cfg), llc, mem, &recSizer{inner: sz, rec: rec})
	if err != nil {
		return nil, err
	}
	core := cpu.MustNew(cpu.DefaultConfig(), &recMem{h: h, rec: rec})
	res, err := core.RunCtx(ctx, &recStream{g: j.p.Stream(), rec: rec}, j.cfg.Instructions)
	if err != nil {
		return nil, err
	}
	rec.res = sim.Result{Trace: j.p.Name, Org: j.cfg.Org, Instructions: res.Instructions, Cycles: res.Cycles,
		IPC: res.IPC, DemandDRAMReads: h.Stats.DemandDRAMReads, DRAMReads: mem.Stats.Reads,
		DRAMWrites: mem.Stats.Writes, LLC: *org.Stats()}
	rec.llcStats, rec.memStats, rec.hStats = *org.Stats(), mem.Stats, h.Stats
	l1, l2, l3 := h.Prefetchers()
	for _, p := range []*prefetch.Prefetcher{l1, l2, l3} {
		if p != nil {
			rec.pfIssued += p.Stats.Issued
			rec.pfUseful += p.Stats.Confirms
		}
	}
	return rec, nil
}

// layerTimes is the replayed time of each layer with its operation
// count, summed over recordings.
type layerTimes struct {
	run, cpu, gen, segs, hier, stubbed, llc, dram, pf time.Duration
	ins, ops, segCalls, memCalls, dramCalls, pfCalls  uint64
	llcByOrg                                          map[sim.OrgKind]time.Duration
	llcOpsByOrg                                       map[sim.OrgKind]uint64
	bdi, fpc, cpack                                   time.Duration
	lines                                             uint64
}

// fixedMem is the core-replay memory stub: every access completes at a
// fixed L1-hit latency, so the replay times only the core's own loop.
type fixedMem struct{ lat uint64 }

func (m fixedMem) Load(now, _ uint64) uint64  { return now + m.lat }
func (m fixedMem) Store(now, _ uint64) uint64 { return now + m.lat }
func (m fixedMem) Fetch(now, _ uint64) uint64 { return now + m.lat }

// sink keeps replay results live so the compiler cannot drop the calls.
var sink uint64

// maxCompressLines bounds the lines materialized for the compressor
// replays; the first lines of a run are as representative as the rest
// and the bound keeps the buffer under 13 MB.
const maxCompressLines = 200_000

// replay times every layer on one recording and checks that the exact
// replays reproduce the recorded run. parent is the enclosing span.
func (r *run) replay(ctx context.Context, rec *recording, lt *layerTimes, parent int, full bool) error {
	j := rec.job
	key := runKey(j.p.Name, j.cfg)
	timed := func(name string, f func() error) (time.Duration, error) {
		id := r.tr.start(name, parent, key)
		t0 := time.Now()
		err := f()
		d := time.Since(t0)
		r.tr.end(id)
		return d, err
	}

	// ccache: the recorded call stream into a fresh organization must
	// reproduce the run's statistics exactly.
	org, err := newOrg(j.cfg)
	if err != nil {
		return err
	}
	hinter, _ := org.(ccache.EvictionHinter)
	d, _ := timed("replay.ccache."+string(j.cfg.Org), func() error {
		var n uint64
		for _, c := range rec.llc {
			switch c.kind {
			case llcAccess:
				if org.Access(c.line, c.flag, int(c.segs)).Hit {
					n++
				}
			case llcFill:
				n += uint64(len(org.Fill(c.line, int(c.segs), c.flag).Writebacks))
			case llcContains:
				if org.Contains(c.line) {
					n++
				}
			case llcContainsBase:
				if org.ContainsBase(c.line) {
					n++
				}
			case llcHint:
				hinter.HintEviction(c.line, c.flag)
			}
		}
		sink += n
		return nil
	})
	if *org.Stats() != rec.llcStats {
		r.rep.fail("%s: ccache replay stats %+v differ from the run's %+v", key, *org.Stats(), rec.llcStats)
	}
	lt.llcByOrg[j.cfg.Org] += d
	lt.llcOpsByOrg[j.cfg.Org] += uint64(len(rec.llc))
	if !full {
		return nil
	}
	lt.llc += d

	// cpu: the recorded op stream through a core over a fixed-latency
	// memory stub.
	core := cpu.MustNew(cpu.DefaultConfig(), fixedMem{lat: hierarchy.DefaultConfig().L1Latency})
	var ins uint64
	d, err = timed("replay.cpu", func() error {
		res, err := core.RunCtx(ctx, &trace.SliceStream{Ops: rec.ops}, j.cfg.Instructions)
		ins = res.Instructions
		return err
	})
	if err != nil {
		return err
	}
	lt.cpu += d
	lt.ins += ins

	// workload: the generator producing the same number of ops, and the
	// value model answering the recorded Segments calls.
	g := j.p.Stream()
	d, _ = timed("replay.workload.gen", func() error {
		var n uint64
		for range rec.ops {
			op, _ := g.Next()
			n += op.Addr
		}
		sink += n
		return nil
	})
	lt.gen += d
	lt.ops += uint64(len(rec.ops))
	sz, err := newSizer(j.p, j.cfg)
	if err != nil {
		return err
	}
	d, _ = timed("replay.workload.segs", func() error {
		var n int
		for _, c := range rec.segs {
			n += sz.Segments(c.line, c.gen)
		}
		sink += uint64(n)
		return nil
	})
	lt.segs += d
	lt.segCalls += uint64(len(rec.segs))

	// compress: every compressor sizing the lines the run sized.
	n := min(len(rec.segs), maxCompressLines)
	buf := make([]byte, 64*n)
	vals := j.p.Values()
	for i := 0; i < n; i++ {
		vals.FillLine(buf[64*i:64*i+64], rec.segs[i].line, rec.segs[i].gen)
	}
	for _, name := range []string{"bdi", "fpc", "cpack"} {
		c, err := compress.ByName(name)
		if err != nil {
			return err
		}
		d, _ = timed("replay.compress."+name, func() error {
			t := 0
			for i := 0; i < n; i++ {
				t += c.CompressedSize(buf[64*i : 64*i+64])
			}
			sink += uint64(t)
			return nil
		})
		switch name {
		case "bdi":
			lt.bdi += d
		case "fpc":
			lt.fpc += d
		default:
			lt.cpack += d
		}
	}
	lt.lines += uint64(n)

	// dram: the rebuilt read/write stream; the access counts are exact.
	mem := dram.New(dram.DefaultConfig())
	d, _ = timed("replay.dram", func() error {
		var t uint64
		for _, c := range rec.dram {
			t += mem.Access(c.now, c.line, c.write)
		}
		sink += t
		return nil
	})
	if mem.Stats.Reads != rec.memStats.Reads || mem.Stats.Writes != rec.memStats.Writes {
		r.rep.fail("%s: dram replay %d reads/%d writes, run %d/%d", key,
			mem.Stats.Reads, mem.Stats.Writes, rec.memStats.Reads, rec.memStats.Writes)
	}
	lt.dram += d
	lt.dramCalls += uint64(len(rec.dram))

	// prefetch: the LLC prefetcher trained on the LLC read stream.
	pf := prefetch.New(prefetch.DefaultLLC())
	var advised uint64
	d, _ = timed("replay.prefetch", func() error {
		for _, c := range rec.llc {
			if c.kind == llcAccess && !c.flag {
				advised++
				sink += uint64(len(pf.Advise(c.line << 6)))
			}
		}
		return nil
	})
	lt.pf += d
	lt.pfCalls += advised

	// hierarchy: the recorded core calls into a fresh hierarchy over a
	// fresh organization, memory and value model. The replay is exact,
	// so every statistic must match the run.
	org2, err := newOrg(j.cfg)
	if err != nil {
		return err
	}
	sz2, err := newSizer(j.p, j.cfg)
	if err != nil {
		return err
	}
	h, mem2, d, err := r.replayHierarchy(rec, org2, sz2, timed)
	if err != nil {
		return err
	}
	if *org2.Stats() != rec.llcStats || mem2.Stats != rec.memStats || h.Stats != rec.hStats {
		r.rep.fail("%s: hierarchy replay diverged from the run (llc %v, dram %v, hierarchy %v)", key,
			*org2.Stats() == rec.llcStats, mem2.Stats == rec.memStats, h.Stats == rec.hStats)
	}
	lt.hier += d
	lt.memCalls += uint64(len(rec.mem))

	// The same replay with the organization and the value model answering
	// from the recording: the difference is their cost in place, where
	// they compete with the rest of the hierarchy for the host's caches.
	fresh, err := newOrg(j.cfg)
	if err != nil {
		return err
	}
	play := &playOrg{Org: fresh, rec: rec}
	var llc ccache.Org = play
	if _, ok := fresh.(ccache.EvictionHinter); ok {
		llc = playHintOrg{play}
	}
	psz := &playSizer{rec: rec}
	h, mem2, d, err = r.replayHierarchy(rec, llc, psz, timed)
	if err != nil {
		return err
	}
	if play.diverge || play.i != len(rec.llc) || psz.diverge || psz.i != len(rec.segs) ||
		mem2.Stats != rec.memStats || h.Stats != rec.hStats {
		r.rep.fail("%s: hierarchy replay over the recorded organization diverged from the run", key)
	}
	lt.stubbed += d
	return nil
}

// replayHierarchy times the recorded core calls into a new hierarchy
// over the given organization and value model.
func (r *run) replayHierarchy(rec *recording, llc ccache.Org, sz hierarchy.Sizer,
	timed func(string, func() error) (time.Duration, error)) (*hierarchy.Hierarchy, *dram.System, time.Duration, error) {
	mem := dram.New(dram.DefaultConfig())
	h, err := hierarchy.New(newHierConfig(rec.job.cfg), llc, mem, sz)
	if err != nil {
		return nil, nil, 0, err
	}
	name := "replay.hierarchy"
	if _, ok := sz.(*playSizer); ok {
		name = "replay.hierarchy.recorded_llc"
	}
	d, _ := timed(name, func() error {
		var t uint64
		for _, c := range rec.mem {
			switch c.kind {
			case memLoad:
				t += h.Load(c.now, c.addr)
			case memStore:
				t += h.Store(c.now, c.addr)
			default:
				t += h.Fetch(c.now, c.addr)
			}
		}
		sink += t
		return nil
	})
	return h, mem, d, nil
}

// layerPass records each job, checks the recording against an
// ordinary sim.RunSingleCtx of the same job (timed: the run the
// replays are attributed against), replays every layer, and reports
// the per-layer metrics. Jobs in extra feed only the organization
// replay, so every organization gets a figure on every workload.
func (r *run) layerPass(ctx context.Context, jobs, extra []simJob) error {
	lt := &layerTimes{llcByOrg: map[sim.OrgKind]time.Duration{}, llcOpsByOrg: map[sim.OrgKind]uint64{}}
	var st ccache.Stats
	var rowHits, dramOps, pfIssued, pfUseful, llcAcc uint64
	all := append(append([]simJob(nil), jobs...), extra...)
	var ms0, ms1 runtime.MemStats
	var alloc uint64
	for i, j := range all {
		full := i < len(jobs)
		key := runKey(j.p.Name, j.cfg)
		root := r.tr.start("layers", 0, key)
		id := r.tr.start("sim.RunSingleCtx", root, key)
		runtime.ReadMemStats(&ms0)
		t0 := time.Now()
		want, err := sim.RunSingleCtx(ctx, j.p, j.cfg)
		d := time.Since(t0)
		runtime.ReadMemStats(&ms1)
		r.tr.end(id)
		alloc += ms1.TotalAlloc - ms0.TotalAlloc
		if err != nil {
			return err
		}
		id = r.tr.start("record", root, key)
		rec, err := record(ctx, j)
		r.tr.end(id)
		if err != nil {
			return err
		}
		if resultDigest(rec.res, false) != resultDigest(want, false) {
			r.rep.fail("%s: recorded run differs from sim.RunSingleCtx", key)
		}
		if err := r.replay(ctx, rec, lt, root, full); err != nil {
			return err
		}
		r.tr.end(root)
		if !full {
			continue
		}
		lt.run += d
		s := rec.llcStats
		st.Hits += s.Hits
		st.VictimHits += s.VictimHits
		st.VictimInserts += s.VictimInserts
		st.VictimInsertFail += s.VictimInsertFail
		llcAcc += s.Accesses
		rowHits += rec.memStats.RowHits
		dramOps += rec.memStats.Reads + rec.memStats.Writes
		pfIssued += rec.pfIssued
		pfUseful += rec.pfUseful
	}
	per := func(d time.Duration, n uint64) float64 {
		if n == 0 {
			return 0
		}
		return float64(d.Nanoseconds()) / float64(n)
	}
	ratio := func(a, b uint64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	rep := r.rep
	if _, ok := rep.values["sim.alloc_kb_per_run"]; !ok {
		rep.set("sim.alloc_kb_per_run", float64(alloc)/1024/float64(len(all)))
	}
	replayed := lt.cpu + lt.gen + lt.hier
	rep.set("sim.unattributed_pct", 100*float64(lt.run-replayed)/float64(lt.run))
	rep.set("cpu.ns_per_ins", per(lt.cpu, lt.ins))
	rep.set("workload.gen_ns_per_op", per(lt.gen, lt.ops))
	rep.set("workload.segs_ns_per_call", per(lt.segs, lt.segCalls))
	// In place, the organization and value model cost the hierarchy
	// replay minus the same replay answering from the recording; DRAM
	// and the prefetcher, which cannot be stubbed, are taken from their
	// own replays.
	inPlace := lt.hier - lt.stubbed
	self := lt.stubbed - lt.dram - lt.pf
	rep.set("hierarchy.self_ns_per_access", per(self, lt.memCalls))
	rep.set("hierarchy.llc_accesses_per_kins", 1000*ratio(llcAcc, lt.ins))
	for _, o := range sim.OrgKinds() {
		k := sim.OrgKind(o)
		rep.set("ccache."+o+".ns_per_op", per(lt.llcByOrg[k], lt.llcOpsByOrg[k]))
	}
	rep.set("ccache.victim_hit_share", ratio(st.VictimHits, st.Hits))
	rep.set("ccache.victim_insert_fail_ratio", ratio(st.VictimInsertFail, st.VictimInserts+st.VictimInsertFail))
	rep.set("compress.bdi_ns_per_line", per(lt.bdi, lt.lines))
	rep.set("compress.fpc_ns_per_line", per(lt.fpc, lt.lines))
	rep.set("compress.cpack_ns_per_line", per(lt.cpack, lt.lines))
	rep.set("dram.ns_per_access", per(lt.dram, lt.dramCalls))
	rep.set("dram.row_hit_ratio", ratio(rowHits, dramOps))
	rep.set("prefetch.ns_per_advise", per(lt.pf, lt.pfCalls))
	rep.set("prefetch.useful_ratio", ratio(pfUseful, pfIssued))
	// The share of replayed time below the L2: the contrast the
	// sim-llc / sim-core pair is built on.
	below := inPlace + lt.dram + lt.pf
	rep.set("replay.below_l2_pct", 100*float64(below)/float64(replayed), "%")
	rep.note("replayed ms: runs %.0f = cpu %.0f + gen %.0f + hierarchy %.0f (organization and value model in place %.0f, "+
		"dram %.0f, llc prefetcher %.0f, rest %.0f) + unattributed; alone: organization %.0f, value model %.0f",
		ms(lt.run), ms(lt.cpu), ms(lt.gen), ms(lt.hier), ms(inPlace), ms(lt.dram), ms(lt.pf), ms(self),
		ms(lt.llc), ms(lt.segs))
	return nil
}
