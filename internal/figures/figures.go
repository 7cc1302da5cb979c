// Package figures regenerates every table and figure of the paper's
// evaluation (Section VI). Each experiment returns a Table whose rows
// mirror what the paper plots: per-trace ratio series for the line
// graphs, category averages for the bar charts, and the headline
// aggregates quoted in the text.
//
// Experiments share a Session so the uncompressed baseline for a trace
// is simulated once and reused across figures.
package figures

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"basevictim/internal/obs"
	otrace "basevictim/internal/obs/trace"
	"basevictim/internal/sim"
	"basevictim/internal/stats"
	"basevictim/internal/workload"
)

// Table is one reproduced table or figure.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// Format renders the table as aligned text.
func (t Table) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	for _, r := range t.Rows {
		line(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Experiments lists every reproducible experiment by id, in paper
// order. The map values run the experiment on a session under a
// context; simulation failures (including checker violations, run
// panics contained as *sim.RunPanicError, and cancellation) come back
// as errors rather than panics so drivers can report them and exit
// cleanly.
func Experiments() []struct {
	ID  string
	Run func(*Session, context.Context) (Table, error)
} {
	return []struct {
		ID  string
		Run func(*Session, context.Context) (Table, error)
	}{
		{"table1", (*Session).TableI},
		{"fig6", (*Session).Fig6},
		{"fig7", (*Session).Fig7},
		{"fig8", (*Session).Fig8},
		{"fig9", (*Session).Fig9},
		{"fig10", (*Session).Fig10},
		{"fig11", (*Session).Fig11},
		{"fig12", (*Session).Fig12},
		{"fig13", (*Session).Fig13},
		{"fig14", (*Session).Fig14},
		{"assoc", (*Session).Associativity},
		{"victimpolicy", (*Session).VictimPolicy},
		{"area", (*Session).Area},
		{"capacity", (*Session).Capacity},
		{"traffic", (*Session).Traffic},
		{"ablation-latency", (*Session).LatencyAblation},
		{"ablation-compressor", (*Session).CompressorAblation},
		{"inclusion", (*Session).Inclusion},
		{"prefetch-interaction", (*Session).PrefetchInteraction},
	}
}

// Session runs simulations with memoization and shared options.
// Experiments fan their independent (trace, config) runs out over a
// bounded worker pool (see scheduler.go); a session is safe for
// concurrent use, including running several experiments at once.
type Session struct {
	// Instructions per thread; scaled-down reruns use fewer than the
	// paper's 200M.
	Instructions uint64
	// MaxTraces caps the trace count per experiment (0 = all), for
	// quick smoke runs and benchmarks.
	MaxTraces int
	// Workers bounds the number of concurrent simulations (0 =
	// GOMAXPROCS, 1 = the historical serial behavior). Tables are
	// byte-identical at every worker count.
	Workers int
	// Check applies the lockstep shadow checker to every run: "" or
	// "off", "cheap", or "full" (see internal/check). A violation in
	// any worker cancels the batch and surfaces as a *check.Violation.
	Check string
	// Inject applies a deterministic fault-injection spec (see
	// check.ParseSpec) to every run; with Check enabled this proves the
	// checker catches corruption under the parallel engine too.
	Inject string
	// RunTimeout bounds each individual simulation (0 = unbounded): a
	// run exceeding it aborts with context.DeadlineExceeded, which
	// cancels the batch like any other error and surfaces through the
	// CLIs with a distinct exit code.
	RunTimeout time.Duration
	// Store, when non-nil, is the durable checkpoint layer under the
	// run cache: completed runs are written as checksummed records, and
	// a store opened in resume mode satisfies repeat runs from disk so
	// an interrupted suite re-simulates only what never finished.
	Store *Store
	// Progress, when non-nil, receives one structured record per
	// completed run (see obs.Progress: level, trace, org, IPC, ...).
	// Renderers turn records into text (obs.TextProgress) or JSONL
	// (obs.JSONProgress). With Workers > 1 it is called from multiple
	// goroutines; the session serializes the calls, so the callback
	// itself needs no locking and output never interleaves.
	Progress obs.ProgressFunc
	// Obs, when non-nil, aggregates observability across the session:
	// every completed (or resumed) run's metrics snapshot is merged
	// into the collector, and each in-flight simulation registers a
	// live job on the collector's Monitor for the -obs-listen progress
	// page. Attaching a collector does not change simulated results —
	// runs get a private per-run registry whose counters are functions
	// of simulated state only.
	Obs *obs.Collector

	all []workload.Profile

	// cache memoizes runs by the full (trace, config) pair with
	// singleflight semantics: the first caller simulates, concurrent
	// callers for the same key wait on the entry instead of duplicating
	// the run. Keying on the complete sim.Config struct makes aliasing
	// impossible by construction — a checked run can never satisfy an
	// unchecked request, nor a different seed, budget or latency knob.
	mu    sync.Mutex
	cache map[runKey]*cacheEntry

	progressMu sync.Mutex

	// runFn is the simulation entry point; tests swap it to count or
	// fail runs. Nil means sim.RunSingleCtx.
	runFn func(context.Context, workload.Profile, sim.Config) (sim.Result, error)

	// stopped, when non-nil, is called each time runJobs tells its
	// workers to stop after a failure; tests use it to order the stop
	// against the jobs still running.
	stopped func()
}

// runKey identifies one memoized simulation. sim.Config contains only
// comparable scalar fields, so the struct itself is the key; every
// config field — including Check, CheckFullBudget, Inject and Seed —
// participates automatically.
type runKey struct {
	trace string
	cfg   sim.Config
}

// cacheEntry is one singleflight cache slot: done closes when the
// owning goroutine has filled res/err. Errors are cached too —
// simulations are deterministic, so a failed (trace, config) pair
// fails identically on retry.
type cacheEntry struct {
	done chan struct{}
	res  sim.Result
	err  error
}

// NewSession builds a session with the full suite loaded.
func NewSession(instructions uint64) *Session {
	return &Session{
		Instructions: instructions,
		all:          workload.Suite(),
		cache:        make(map[runKey]*cacheEntry),
	}
}

func (s *Session) emit(p obs.Progress) {
	if s.Progress != nil {
		s.progressMu.Lock()
		s.Progress(p)
		s.progressMu.Unlock()
	}
}

func (s *Session) limit(ps []workload.Profile) []workload.Profile {
	if s.MaxTraces > 0 && len(ps) > s.MaxTraces {
		return ps[:s.MaxTraces]
	}
	return ps
}

// sensitive returns the (possibly capped) cache-sensitive trace list.
func (s *Session) sensitive() []workload.Profile {
	return s.limit(workload.Sensitive(s.all))
}

// run simulates (memoized, singleflight) one trace under one config.
// The session's instruction budget and verification options are applied
// before keying, so every distinct effective configuration — checked or
// not, injected or not — gets its own cache slot. When several workers
// race for the same key (e.g. Fig6/7/8/12 all needing a trace's shared
// 2 MB baseline), exactly one simulates; the rest wait for its entry
// (or give up when their own context is cancelled). With a Store
// attached, a cache miss consults the checkpoint directory before
// simulating, and a completed simulation is checkpointed before its
// waiters are released.
func (s *Session) run(ctx context.Context, p workload.Profile, cfg sim.Config) (sim.Result, error) {
	// A session budget overrides the request's; a zero budget (bvsimd
	// serves per-request budgets) leaves cfg.Instructions in charge.
	if s.Instructions > 0 {
		cfg.Instructions = s.Instructions
	}
	if s.Check != "" {
		cfg.Check = s.Check
	}
	if s.Inject != "" {
		cfg.Inject = s.Inject
	}
	key := runKey{trace: p.Name, cfg: cfg}
	s.mu.Lock()
	if e, ok := s.cache[key]; ok {
		s.mu.Unlock()
		select {
		case <-e.done:
			return e.res, e.err
		case <-ctx.Done():
			return sim.Result{}, ctx.Err()
		}
	}
	e := &cacheEntry{done: make(chan struct{})}
	s.cache[key] = e
	s.mu.Unlock()
	// fromStore publishes a checkpointed result to this entry's waiters.
	fromStore := func(r sim.Result) (sim.Result, error) {
		e.res = r
		close(e.done)
		if s.Obs != nil && r.Obs != nil {
			s.Obs.MergeRun(*r.Obs)
		}
		s.emit(obs.Progress{
			Level: obs.LevelProgress, Trace: p.Name, Org: string(cfg.Org),
			IPC: r.IPC, Resumed: true,
		})
		return r, nil
	}
	// uncache drops the entry so a later request retries: used for
	// outcomes that are facts about this attempt (interruption), not
	// about the configuration. Waiters still see this attempt's error.
	uncache := func() {
		s.mu.Lock()
		delete(s.cache, key)
		s.mu.Unlock()
	}
	if s.Store != nil {
		// The store spans live here rather than in store.go so one
		// claim/read/write triple per request-path operation shows up in
		// a trace, not one per internal helper call.
		rsp := otrace.FromContext(ctx).Child("store.read", otrace.KindInternal)
		r, ok := s.Store.loadRun(key)
		rsp.SetAttr("hit", fmt.Sprintf("%t", ok))
		rsp.End()
		if ok {
			return fromStore(r)
		}
		// Cross-process claim (resume mode): if another process sharing
		// this cache directory is already simulating the key, wait for
		// its record instead of duplicating the run.
		csp := otrace.FromContext(ctx).Child("store.claim", otrace.KindInternal)
		release, r, ok, cerr := s.Store.claimRun(ctx, key)
		switch {
		case cerr != nil:
			csp.Fail(cerr)
			csp.End()
			uncache()
			e.err = cerr
			close(e.done)
			return sim.Result{}, cerr
		case ok:
			// Another process simulated the key while we waited; its
			// record is the answer — the cross-process handoff.
			csp.SetAttr("outcome", "resumed")
			csp.End()
			return fromStore(r)
		case release != nil:
			csp.SetAttr("outcome", "claimed")
			csp.End()
			defer release()
		default:
			csp.SetAttr("outcome", "unclaimed")
			csp.End()
		}
	}
	e.res, e.err = s.simulate(ctx, p, cfg)
	if e.err != nil && (errors.Is(e.err, context.Canceled) || errors.Is(e.err, context.DeadlineExceeded)) {
		// An interrupted run is not a property of the configuration:
		// caching it would poison the key for every later caller of a
		// long-lived session (one disconnecting bvsimd client would
		// wedge the key for everyone). Deterministic failures — checker
		// violations, contained panics, bad configs — stay cached.
		uncache()
	}
	if e.err == nil && s.Store != nil {
		wsp := otrace.FromContext(ctx).Child("store.write", otrace.KindInternal)
		perr := s.Store.saveRun(key, e.res)
		wsp.Fail(perr)
		wsp.End()
		if perr != nil {
			s.emit(obs.Progress{
				Level: obs.LevelWarn,
				Msg:   fmt.Sprintf("checkpoint write failed for %s on %s: %v", p.Name, cfg.Org, perr),
			})
		}
	}
	close(e.done)
	return e.res, e.err
}

// Run simulates one named trace of the suite under cfg, through the
// session's full stack: the in-memory singleflight cache, then the
// checkpoint store (when attached, with the cross-process claim), then
// the runner. It is the entry point the bvsimd service backend uses.
// cfg is taken as-is — including its instruction budget — except that
// a non-zero Session.Instructions still overrides, as it does for the
// figure experiments.
func (s *Session) Run(ctx context.Context, traceName string, cfg sim.Config) (sim.Result, error) {
	p, ok := workload.ByName(s.all, traceName)
	if !ok {
		return sim.Result{}, fmt.Errorf("figures: unknown trace %q", traceName)
	}
	return s.run(ctx, p, cfg)
}

// SetRunner replaces the simulation entry point invoked on a cache and
// checkpoint miss (nil restores the in-process default,
// sim.RunSingleCtx). bvsimd points it at the supervised worker-process
// pool, so runs dispatched over the network still flow through the
// session's dedupe and persistence layers. Panics from the runner are
// contained like the simulator's own (*sim.RunPanicError), and the
// session's RunTimeout still applies around it.
func (s *Session) SetRunner(fn func(context.Context, workload.Profile, sim.Config) (sim.Result, error)) {
	s.runFn = fn
}

// simulate performs the actual run (no caching) and reports progress.
// It applies the session's per-run deadline and contains panics — from
// the simulator or a test-injected runFn — as *sim.RunPanicError, so a
// panicking run can neither kill the process nor leave the cache
// entry's done channel unclosed (which would deadlock its waiters).
func (s *Session) simulate(ctx context.Context, p workload.Profile, cfg sim.Config) (_ sim.Result, err error) {
	defer sim.Contain(p.Name, cfg, &err)
	if s.RunTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.RunTimeout)
		defer cancel()
	}
	runFn := s.runFn
	if runFn == nil {
		runFn = sim.RunSingleCtx
	}
	if s.Obs != nil {
		job := s.Obs.Monitor.StartJob(p.Name+" "+string(cfg.Org), cfg.Instructions)
		defer job.Done()
		ctx = sim.WithObserver(ctx, &sim.Observer{Registry: obs.NewRegistry(), Job: job})
	}
	r, err := runFn(ctx, p, cfg)
	if err != nil {
		return sim.Result{}, fmt.Errorf("figures: %s on %s: %w", p.Name, cfg.Org, err)
	}
	if s.Obs != nil && r.Obs != nil {
		s.Obs.MergeRun(*r.Obs)
	}
	s.emit(obs.Progress{
		Level: obs.LevelProgress, Trace: p.Name, Org: string(cfg.Org),
		IPC: r.IPC, DRAMReads: r.DemandDRAMReads, Instructions: r.Instructions,
	})
	return r, nil
}

// mixKey identifies one multi-program checkpoint record: the four
// trace names plus the complete config.
type mixKey struct {
	traces [4]string
	cfg    sim.Config
}

// runMix executes one multi-program mix with the session's per-run
// deadline, panic containment and durable checkpointing applied. Mixes
// are not memoized in memory (no two figure cells share one), but with
// a Store attached a completed mix is checkpointed and a resumed suite
// loads it instead of re-simulating four threads' worth of work.
func (s *Session) runMix(ctx context.Context, mix [4]workload.Profile, cfg sim.Config) (_ sim.MultiResult, err error) {
	var key mixKey
	for i, p := range mix {
		key.traces[i] = p.Name
	}
	key.cfg = cfg
	label := strings.Join(key.traces[:], "+")
	if s.Store != nil {
		if r, ok := s.Store.loadMix(key); ok {
			if s.Obs != nil && r.Obs != nil {
				s.Obs.MergeRun(*r.Obs)
			}
			s.emit(obs.Progress{
				Level: obs.LevelProgress,
				Msg:   fmt.Sprintf("ckpt mix %s on %s (resumed, not re-simulated)", label, cfg.Org),
			})
			return r, nil
		}
	}
	defer sim.Contain(label, cfg, &err)
	if s.RunTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.RunTimeout)
		defer cancel()
	}
	if s.Obs != nil {
		// Mixes run four threads; the scheduler advances the job with the
		// summed retired count, so total is scaled to match.
		job := s.Obs.Monitor.StartJob("mix "+label, 4*cfg.Instructions)
		defer job.Done()
		ctx = sim.WithObserver(ctx, &sim.Observer{Registry: obs.NewRegistry(), Job: job})
	}
	r, err := sim.RunMixCtx(ctx, mix, cfg)
	if err != nil {
		return sim.MultiResult{}, fmt.Errorf("figures: mix %s on %s: %w", label, cfg.Org, err)
	}
	if s.Obs != nil && r.Obs != nil {
		s.Obs.MergeRun(*r.Obs)
	}
	if s.Store != nil {
		if perr := s.Store.saveMix(key, r); perr != nil {
			s.emit(obs.Progress{
				Level: obs.LevelWarn,
				Msg:   fmt.Sprintf("checkpoint write failed for mix %s on %s: %v", label, cfg.Org, perr),
			})
		}
	}
	return r, nil
}

// base2MB is the paper's 2 MB 16-way NRU uncompressed baseline.
func base2MB() sim.Config {
	c := sim.Default()
	c.Org = sim.OrgUncompressed
	return c
}

// bvDefault is the 2 MB Base-Victim configuration.
func bvDefault() sim.Config {
	c := sim.Default()
	c.Org = sim.OrgBaseVictim
	return c
}

func f3(x float64) string  { return fmt.Sprintf("%.3f", x) }
func pct(x float64) string { return fmt.Sprintf("%+.1f%%", (x-1)*100) }

// ratioSeries runs cfg and base across traces, returning per-trace IPC
// and DRAM-read ratios. All 2*len(ps) simulations are submitted as one
// batch to the worker pool; results come back in trace order.
func (s *Session) ratioSeries(ctx context.Context, ps []workload.Profile, cfg, base sim.Config) (ipc, reads []float64, err error) {
	reqs := make([]runReq, 0, 2*len(ps))
	for _, p := range ps {
		reqs = append(reqs, runReq{p, cfg}, runReq{p, base})
	}
	res, err := s.runAll(ctx, reqs)
	if err != nil {
		return nil, nil, err
	}
	ipc = make([]float64, 0, len(ps))
	reads = make([]float64, 0, len(ps))
	for i := range ps {
		pair := sim.Pair{Run: res[2*i], Base: res[2*i+1]}
		ipc = append(ipc, pair.IPCRatio())
		reads = append(reads, pair.DRAMReadRatio())
	}
	return ipc, reads, nil
}

// lineGraph builds the per-trace table used by Figures 6, 7, 8 and 12.
func (s *Session) lineGraph(ctx context.Context, id, title string, ps []workload.Profile, cfg sim.Config) (Table, error) {
	ipc, reads, err := s.ratioSeries(ctx, ps, cfg, base2MB())
	if err != nil {
		return Table{}, err
	}
	t := Table{
		ID:     id,
		Title:  title,
		Header: []string{"trace", "IPC ratio", "DRAM read ratio"},
	}
	for i, p := range ps {
		t.Rows = append(t.Rows, []string{p.Name, f3(ipc[i]), f3(reads[i])})
	}
	sum := stats.Summarize(ipc)
	t.Notes = append(t.Notes,
		fmt.Sprintf("IPC geomean %s (min %.3f, max %.3f); %d/%d traces lose vs baseline (%d below 0.99)",
			pct(sum.GeoMean), sum.Min, sum.Max, sum.Losers, sum.N, stats.CountBelow(ipc, 0.99)),
		fmt.Sprintf("DRAM read geomean %.3f", stats.GeoMean(reads)),
	)
	return t, nil
}
