// Package sim ties the substrates together into runnable experiments:
// a trace-driven core (cpu) over a private hierarchy (hierarchy) with a
// pluggable LLC organization (ccache) and DDR3 memory (dram), fed by
// the synthetic workload suite (workload). It provides single-thread
// runs, multi-program runs with a shared LLC, and the ratio metrics
// the paper reports.
package sim

import (
	"context"
	"fmt"

	"basevictim/internal/arena"
	"basevictim/internal/ccache"
	"basevictim/internal/check"
	"basevictim/internal/compress"
	"basevictim/internal/cpu"
	"basevictim/internal/dram"
	"basevictim/internal/energy"
	"basevictim/internal/hierarchy"
	"basevictim/internal/obs"
	"basevictim/internal/policy"
	"basevictim/internal/trace"
	"basevictim/internal/workload"
)

// OrgKind names an LLC organization.
type OrgKind string

// Organization kinds.
const (
	OrgUncompressed OrgKind = "uncompressed"
	OrgTwoTag       OrgKind = "twotag"
	OrgTwoTagMod    OrgKind = "twotag-mod"
	OrgBaseVictim   OrgKind = "basevictim"
	OrgVSC          OrgKind = "vsc2x"
)

// Config describes one simulation configuration.
type Config struct {
	Org          OrgKind
	LLCSizeBytes int
	LLCWays      int
	Policy       string // baseline replacement: "nru", "srrip", "char", "lru"
	VictimPolicy string // victim selector: "ecm", "random", "lru", "sizelru"
	Inclusive    bool

	Instructions uint64 // per-thread instruction budget
	Prefetch     bool

	// ExtraLLCLatency adds lookup cycles for larger uncompressed
	// caches (the paper adds 1 cycle for 3 MB+).
	ExtraLLCLatency uint64

	// TagCycles is the extra LLC lookup latency from doubled tags
	// (paper: 1). DecompressCycles is the penalty on compressed hits
	// (paper: 2). Both apply to compressed organizations only.
	TagCycles        uint64
	DecompressCycles uint64

	// Compressor selects the algorithm sizing lines in the value
	// model: "bdi" (paper default), "fpc" or "cpack".
	Compressor string

	// Check enables the lockstep shadow checker: "off" (or empty),
	// "cheap", or "full" (see internal/check). A violation aborts the
	// run with a *check.Violation error.
	Check string
	// CheckFullBudget overrides the operation budget after which full
	// checking downgrades itself to cheap (0 = check.DefaultFullBudget).
	CheckFullBudget uint64
	// Inject schedules deterministic faults ("tag@1000,size", see
	// check.ParseSpec) between the organization and the checker; used to
	// validate that the checker catches real corruption.
	Inject string
	// Seed perturbs fault placement (0 behaves as 1).
	Seed uint64
}

// Default is the paper's main single-thread configuration with a
// reduced instruction budget suitable for a laptop-scale rerun; the
// harness scales Instructions up or down.
func Default() Config {
	return Config{
		Org:              OrgBaseVictim,
		LLCSizeBytes:     2 << 20,
		LLCWays:          16,
		Policy:           "nru",
		VictimPolicy:     "ecm",
		Inclusive:        true,
		Instructions:     1_000_000,
		Prefetch:         true,
		TagCycles:        1,
		DecompressCycles: 2,
		Compressor:       "bdi",
	}
}

// Baseline returns cfg rewritten as the uncompressed baseline of the
// same geometry.
func (c Config) Baseline() Config {
	c.Org = OrgUncompressed
	return c
}

// WithSize returns cfg with a different LLC size (ways scale with size
// below 2 MB granularity kept at 16 unless specified).
func (c Config) WithSize(bytes, ways int, extraLat uint64) Config {
	c.LLCSizeBytes = bytes
	c.LLCWays = ways
	c.ExtraLLCLatency = extraLat
	return c
}

// OrgKinds lists the valid organization names, in presentation order.
func OrgKinds() []string {
	return []string{
		string(OrgUncompressed), string(OrgTwoTag), string(OrgTwoTagMod),
		string(OrgBaseVictim), string(OrgVSC),
	}
}

// ccacheConfig translates the simulation config into the organization
// config (shared by the organization itself and the shadow checker).
func ccacheConfig(c Config) (ccache.Config, error) {
	pf, err := policy.ByName(c.Policy)
	if err != nil {
		return ccache.Config{}, err
	}
	vName := c.VictimPolicy
	if vName == "" {
		vName = "ecm"
	}
	vf, err := policy.VictimByName(vName)
	if err != nil {
		return ccache.Config{}, err
	}
	return ccache.Config{
		SizeBytes: c.LLCSizeBytes,
		Ways:      c.LLCWays,
		Policy:    pf,
		Victim:    vf,
		Inclusive: c.Inclusive,
		Seed:      1,
	}, nil
}

// buildOrg constructs the configured LLC organization and returns the
// organization config it was built with. A non-nil arena backs the
// organization's (and any shadow checker's) tag arrays.
func buildOrg(c Config, a *arena.Arena) (ccache.Org, ccache.Config, error) {
	cc, err := ccacheConfig(c)
	if err != nil {
		return nil, ccache.Config{}, err
	}
	cc.Arena = a
	var org ccache.Org
	switch c.Org {
	case OrgUncompressed:
		org, err = ccache.NewUncompressed(cc)
	case OrgTwoTag:
		org, err = ccache.NewTwoTag(cc)
	case OrgTwoTagMod:
		org, err = ccache.NewTwoTagModified(cc)
	case OrgBaseVictim:
		org, err = ccache.NewBaseVictim(cc)
	case OrgVSC:
		org, err = ccache.NewVSCFunctional(cc)
	default:
		return nil, ccache.Config{}, fmt.Errorf("sim: unknown org %q", c.Org)
	}
	if err != nil {
		return nil, ccache.Config{}, err
	}
	return org, cc, nil
}

// instrument layers the configured verification around the organization:
// fault injection innermost (it corrupts what the checker must catch),
// then the lockstep checker. With checking off the organization is
// returned as-is (possibly wrapped by an injector) and the checker is
// nil.
func instrument(org ccache.Org, cc ccache.Config, c Config) (ccache.Org, *check.Checker, error) {
	wrapped := org
	if c.Inject != "" {
		faults, err := check.ParseSpec(c.Inject)
		if err != nil {
			return nil, nil, err
		}
		wrapped = check.NewInjector(wrapped, faults, c.Seed)
	}
	lvl, err := check.ParseLevel(c.Check)
	if err != nil {
		return nil, nil, err
	}
	if lvl == check.Off {
		return wrapped, nil, nil
	}
	ck, err := check.New(wrapped, cc, check.Config{Level: lvl, FullBudget: c.CheckFullBudget})
	if err != nil {
		return nil, nil, err
	}
	return ck, ck, nil
}

// buildLLC is the common construction path: organization plus the
// configured verification layers.
func buildLLC(c Config, a *arena.Arena) (ccache.Org, *check.Checker, error) {
	org, cc, err := buildOrg(c, a)
	if err != nil {
		return nil, nil, err
	}
	return instrument(org, cc, c)
}

// finishChecks runs the end-of-run verification: the checker's final
// whole-cache sweep, plus any protocol fault the organization absorbed
// (surfaced even with checking off, so bare runs cannot silently
// swallow one).
func finishChecks(llc ccache.Org, ck *check.Checker) error {
	if ck != nil {
		if err := ck.Final(); err != nil {
			return err
		}
	}
	if f, ok := ccache.Root(llc).(ccache.Faulter); ok {
		if err := f.Fault(); err != nil {
			return fmt.Errorf("sim: organization protocol fault: %w", err)
		}
	}
	return nil
}

func checkNotices(ck *check.Checker) []string {
	if ck == nil {
		return nil
	}
	return ck.Notices()
}

// Result summarizes one thread's run.
type Result struct {
	Trace        string
	Org          OrgKind
	Instructions uint64
	Cycles       uint64
	IPC          float64

	DemandDRAMReads uint64
	DRAMReads       uint64
	DRAMWrites      uint64
	LLC             ccache.Stats
	Energy          energy.Counters

	// LLCLogicalLines and LLCPhysicalLines snapshot the effective
	// capacity at the end of the run (Section V comparison).
	LLCLogicalLines  int
	LLCPhysicalLines int

	// CheckNotices carries non-fatal notices from the lockstep checker
	// (e.g. the full->cheap downgrade); empty with checking off.
	CheckNotices []string

	// Obs is the run's metrics snapshot when an Observer with a
	// registry was attached via WithObserver, nil otherwise. It is
	// deterministic (same Config, same snapshot) and rides into
	// checkpoint records; old records without it decode with Obs nil.
	Obs *obs.Snapshot `json:",omitempty"`
}

// sizerFor builds the trace's value model under the configured
// compression algorithm, with its memos carved from a (nil: the heap).
func sizerFor(p workload.Profile, cfg Config, a *arena.Arena) (hierarchy.Sizer, error) {
	name := cfg.Compressor
	if name == "" || name == "bdi" {
		return p.ValuesIn(a, nil), nil
	}
	c, err := compress.ByName(name)
	if err != nil {
		return nil, err
	}
	return p.ValuesIn(a, c), nil
}

func hierConfig(cfg Config) hierarchy.Config {
	hcfg := hierarchy.DefaultConfig()
	hcfg.EnablePrefetch = cfg.Prefetch
	hcfg.ExtraLLCLatency = cfg.ExtraLLCLatency
	hcfg.ExtraTagCycles = cfg.TagCycles
	hcfg.DecompressCycles = cfg.DecompressCycles
	return hcfg
}

// RunSingle executes one trace on one configuration.
func RunSingle(p workload.Profile, cfg Config) (Result, error) {
	return RunSingleCtx(context.Background(), p, cfg)
}

// RunSingleCtx is RunSingle with cooperative cancellation: the core's
// instruction loop polls ctx (see cpu.RunCtx) and an aborted run
// returns an error wrapping context.Canceled or
// context.DeadlineExceeded instead of a partial result. A panic
// anywhere in the run comes back as a *RunPanicError rather than
// unwinding into the caller.
func RunSingleCtx(ctx context.Context, p workload.Profile, cfg Config) (Result, error) {
	return run(ctx, p.Name, cfg, func(a *arena.Arena) (trace.Stream, hierarchy.Sizer, error) {
		sizer, err := sizerFor(p, cfg, a)
		if err != nil {
			return nil, nil, err
		}
		return p.StreamIn(a), sizer, nil
	})
}

// RunStream executes an arbitrary instruction stream (e.g. a trace
// file replayed through trace.Reader) against the configuration, using
// the supplied value model for compressed sizes. It powers trace-file
// replay in cmd/bvsim.
func RunStream(s trace.Stream, sizer hierarchy.Sizer, cfg Config) (Result, error) {
	return RunStreamCtx(context.Background(), s, sizer, cfg)
}

// RunStreamCtx is RunStream with the same cancellation, deadline and
// panic-containment semantics as RunSingleCtx.
func RunStreamCtx(ctx context.Context, s trace.Stream, sizer hierarchy.Sizer, cfg Config) (Result, error) {
	return run(ctx, "stream", cfg, func(*arena.Arena) (trace.Stream, hierarchy.Sizer, error) {
		return s, sizer, nil
	})
}

// run assembles and executes one single-thread run for RunSingleCtx
// and RunStreamCtx. name labels the run in its result, errors and panic
// forensics. input supplies the instruction stream and value model,
// carving any per-run state from the run's arena; it is called after
// the LLC is built, so a configuration error is reported before an
// input error.
func run(ctx context.Context, name string, cfg Config, input func(*arena.Arena) (trace.Stream, hierarchy.Sizer, error)) (_ Result, err error) {
	defer Contain(name, cfg, &err)
	a := getArena()
	defer putArena(a)
	org, ck, err := buildLLC(cfg, a)
	if err != nil {
		return Result{}, err
	}
	s, sizer, err := input(a)
	if err != nil {
		return Result{}, err
	}
	mem := dram.New(dram.DefaultConfig())
	h, err := hierarchy.NewIn(a, hierConfig(cfg), org, mem, sizer)
	if err != nil {
		return Result{}, err
	}
	core := cpu.MustNewIn(a, cpu.DefaultConfig(), h)
	o := ObserverFrom(ctx)
	o.attach(org, mem, core)
	res, runErr := core.RunCtx(ctx, s, cfg.Instructions)
	if runErr != nil {
		return Result{}, fmt.Errorf("sim: %s on %s aborted after %d instructions: %w",
			name, cfg.Org, res.Instructions, runErr)
	}
	if err := finishChecks(org, ck); err != nil {
		return Result{}, err
	}
	return Result{
		Trace:            name,
		Org:              cfg.Org,
		Instructions:     res.Instructions,
		Cycles:           res.Cycles,
		IPC:              res.IPC,
		DemandDRAMReads:  h.Stats.DemandDRAMReads,
		DRAMReads:        mem.Stats.Reads,
		DRAMWrites:       mem.Stats.Writes,
		LLC:              *org.Stats(),
		Energy:           h.EnergyCounters(res.Cycles),
		LLCLogicalLines:  org.LogicalLines(),
		LLCPhysicalLines: org.Sets() * org.Ways(),
		CheckNotices:     checkNotices(ck),
		Obs:              o.finish(org, mem, h),
	}, nil
}

// Pair holds a run and its same-trace baseline, with ratio helpers.
type Pair struct {
	Run, Base Result
}

// IPCRatio is run IPC over baseline IPC.
func (p Pair) IPCRatio() float64 {
	if p.Base.IPC == 0 {
		return 0
	}
	return p.Run.IPC / p.Base.IPC
}

// DRAMReadRatio is the demand read-traffic ratio.
func (p Pair) DRAMReadRatio() float64 {
	if p.Base.DemandDRAMReads == 0 {
		return 1
	}
	return float64(p.Run.DemandDRAMReads) / float64(p.Base.DemandDRAMReads)
}

// RunPair runs a trace on cfg and on the 2 MB-class baseline given by
// base, returning both.
func RunPair(p workload.Profile, cfg, base Config) (Pair, error) {
	return RunPairCtx(context.Background(), p, cfg, base)
}

// RunPairCtx is RunPair under a cancellable context. Any attached
// observer covers only the primary run: the baseline leg runs
// detached, so the pair's metrics describe the organization under
// study rather than a sum of the two.
func RunPairCtx(ctx context.Context, p workload.Profile, cfg, base Config) (Pair, error) {
	r, err := RunSingleCtx(ctx, p, cfg)
	if err != nil {
		return Pair{}, err
	}
	b, err := RunSingleCtx(WithObserver(ctx, nil), p, base)
	if err != nil {
		return Pair{}, err
	}
	return Pair{Run: r, Base: b}, nil
}

// MultiResult is one multi-program mix outcome.
type MultiResult struct {
	Mix     [4]string
	PerIPC  [4]float64
	Cycles  [4]uint64 // cycle count when each thread finished its phase
	LLCStat ccache.Stats

	// Obs is the mix's metrics snapshot when an Observer was attached;
	// all four cores share one registry, so per-core contributions sum.
	Obs *obs.Snapshot `json:",omitempty"`
}

// RunMix executes a 4-thread multi-program mix on a shared LLC. Each
// thread retires insPerThread instructions; threads that finish early
// keep running to preserve contention (Section V), and per-thread IPC
// is measured at the end of each thread's own phase.
func RunMix(mix [4]workload.Profile, cfg Config) (MultiResult, error) {
	return RunMixCtx(context.Background(), mix, cfg)
}

// RunMixCtx is RunMix with cooperative cancellation: the context is
// polled between scheduling quanta (and inside each core's own loop),
// and a panicking mix surfaces as a *RunPanicError naming all four
// traces.
func RunMixCtx(ctx context.Context, mix [4]workload.Profile, cfg Config) (_ MultiResult, err error) {
	defer Contain(mixLabel(mix), cfg, &err)
	a := getArena()
	defer putArena(a)
	org, ck, err := buildLLC(cfg, a)
	if err != nil {
		return MultiResult{}, err
	}
	mem := dram.New(dram.DefaultConfig())

	var (
		cores   [4]*cpu.Core
		streams [4]*workload.Generator
		retired [4]uint64
		doneAt  [4]uint64
		res     MultiResult
	)
	hiers := make([]*hierarchy.Hierarchy, len(mix))
	for i, p := range mix {
		// The four value models and generators stay on the heap: in
		// the arena they would make every recycled arena that ever ran
		// a mix hold four sets of memos (about 8 MB) for good.
		sizer, err := sizerFor(p, cfg, nil)
		if err != nil {
			return MultiResult{}, err
		}
		h, err := hierarchy.NewIn(a, hierConfig(cfg), org, mem, sizer)
		if err != nil {
			return MultiResult{}, err
		}
		h.AddrOffset = uint64(i+1) << 44
		hiers[i] = h
		ccfg := cpu.DefaultConfig()
		ccfg.CodeBase = uint64(i+1)<<44 | 1<<40
		cores[i] = cpu.MustNewIn(a, ccfg, h)
		streams[i] = p.Stream()
		res.Mix[i] = p.Name
	}
	hierarchy.ShareLLC(hiers)
	o := ObserverFrom(ctx)
	if o != nil {
		if ob, ok := ccache.Root(org).(ccache.Observable); ok {
			ob.Observe(o.Registry, o.Ring)
		}
		mem.Observe(o.Registry)
		for i := range cores {
			// Cores share the registry (their contributions sum); the
			// live-progress job is advanced by the scheduler below,
			// since per-quantum core counters restart at zero.
			cores[i].Observe(o.Registry, nil)
		}
	}

	const quantum = 2000
	for {
		// One cancellation poll per scheduling round; each quantum is
		// short (2000 instructions), so cancellation latency stays low
		// without the cores needing to poll inside a quantum.
		if cerr := ctx.Err(); cerr != nil {
			return MultiResult{}, fmt.Errorf("sim: mix %s on %s aborted: %w", mixLabel(mix), cfg.Org, cerr)
		}
		allDone := true
		for i := range cores {
			if doneAt[i] != 0 {
				// Finished threads keep executing for contention, but
				// only while others still measure.
				continue
			}
			allDone = false
			r := cores[i].Run(streams[i], quantum)
			retired[i] += r.Instructions
			if retired[i] >= cfg.Instructions {
				doneAt[i] = r.Cycles
				res.PerIPC[i] = float64(retired[i]) / float64(r.Cycles)
				res.Cycles[i] = r.Cycles
			}
		}
		if allDone {
			break
		}
		if o != nil {
			o.Job.Advance(retired[0] + retired[1] + retired[2] + retired[3])
		}
		// Contention traffic from finished threads.
		for i := range cores {
			if doneAt[i] != 0 {
				cores[i].Run(streams[i], quantum/4)
			}
		}
	}
	if err := finishChecks(org, ck); err != nil {
		return MultiResult{}, err
	}
	res.LLCStat = *org.Stats()
	res.Obs = o.finish(org, mem, hiers...)
	return res, nil
}

// mixLabel names a mix for error reporting: the four trace names
// joined with "+".
func mixLabel(mix [4]workload.Profile) string {
	return mix[0].Name + "+" + mix[1].Name + "+" + mix[2].Name + "+" + mix[3].Name
}

// WeightedSpeedup returns the paper's multi-program metric: the mean
// over threads of IPC_new/IPC_base, where base is the same mix run on
// the baseline configuration.
func WeightedSpeedup(run, base MultiResult) float64 {
	sum := 0.0
	for i := range run.PerIPC {
		if base.PerIPC[i] > 0 {
			sum += run.PerIPC[i] / base.PerIPC[i]
		}
	}
	return sum / float64(len(run.PerIPC))
}
