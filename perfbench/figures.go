package main

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"basevictim/internal/figures"
	"basevictim/internal/obs"
	"basevictim/internal/sim"
	"basevictim/internal/workload"
)

// The figures-short suite: every experiment on one session at a short
// budget, so per-run set-up, the session memo, the scheduler and the
// 4-core mixes dominate rather than steady-state simulation.
const (
	figIns     = 20_000
	figTraces  = 4
	figWorkers = 2
)

// suiteStats is what one suite pass observed through the runner hook.
type suiteStats struct {
	mu      sync.Mutex
	runs    int
	ins     uint64
	latency []float64
	first   map[sim.OrgKind]simJob
}

// newSuite builds a session whose runner counts and times every
// simulation it executes (memo hits never reach the runner).
func newSuite(workers int, tr *tracer, st *suiteStats) *figures.Session {
	s := figures.NewSession(figIns)
	s.MaxTraces = figTraces
	s.Workers = workers
	s.SetRunner(func(ctx context.Context, p workload.Profile, cfg sim.Config) (sim.Result, error) {
		st.mu.Lock()
		id := tr.start("sim.RunSingleCtx", 0, runKey(p.Name, cfg))
		st.mu.Unlock()
		t0 := time.Now()
		res, err := sim.RunSingleCtx(ctx, p, cfg)
		d := time.Since(t0)
		st.mu.Lock()
		defer st.mu.Unlock()
		tr.end(id)
		st.runs++
		st.ins += res.Instructions
		st.latency = append(st.latency, ms(d))
		if st.first != nil {
			if _, ok := st.first[cfg.Org]; !ok {
				st.first[cfg.Org] = simJob{p, cfg}
			}
		}
		return res, err
	})
	return s
}

// runSuite runs every experiment in order and returns the concatenated
// tables.
func runSuite(ctx context.Context, s *figures.Session) (string, error) {
	var b strings.Builder
	for _, e := range figures.Experiments() {
		t, err := e.Run(s, ctx)
		if err != nil {
			return "", fmt.Errorf("%s: %w", e.ID, err)
		}
		b.WriteString(t.Format())
	}
	return b.String(), nil
}

func runFigures(ctx context.Context, r *run) error {
	rep := r.rep
	key := fmt.Sprintf("ins=%d,traces=%d", figIns, figTraces)
	cfg := sim.Default()
	var setup []float64
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		s := figures.NewSession(figIns)
		cfg.Instructions = 1
		if _, err := s.Run(ctx, "mcf.p1", cfg); err != nil {
			return err
		}
		setup = append(setup, time.Since(t0).Seconds())
	}
	r.reportSetup(setup)

	// Check suite, untimed: one worker, with a collector so 4-core
	// mixes (which bypass the runner) are counted.
	check := &suiteStats{first: map[sim.OrgKind]simJob{}}
	s := newSuite(1, nil, check)
	s.Obs = obs.NewCollector()
	out, err := runSuite(ctx, s)
	if err != nil {
		return err
	}
	r.check(r.golden.Figures, key, textDigest(out))
	mixes := int(s.Obs.MergedRuns()) - check.runs
	rep.attempted++
	if r.update {
		return nil
	}

	var suiteWall, suiteMIPS, suiteRSS, latency, spanned, bare []float64
	var ms0, ms1 runtime.MemStats
	start, cpu0 := time.Now(), cpuTime()
	for pass := 0; ; pass++ {
		tr := r.tr
		if pass%2 == 1 {
			tr = nil
		}
		if pass == 0 {
			runtime.ReadMemStats(&ms0)
		}
		if err := resetPeakRSS(); err != nil {
			return err
		}
		st := &suiteStats{}
		s := newSuite(figWorkers, tr, st)
		t0 := time.Now()
		out, err := runSuite(ctx, s)
		d := time.Since(t0)
		if pass == 0 {
			runtime.ReadMemStats(&ms1)
		}
		rep.attempted++
		if err != nil {
			rep.failed++
			rep.fail("suite at %d workers: %v", figWorkers, err)
			break
		}
		r.check(r.golden.Figures, key, textDigest(out))
		if st.runs != check.runs {
			rep.fail("suite at %d workers executed %d runs, %d at one worker", figWorkers, st.runs, check.runs)
		}
		rss, err := peakRSSMB("self")
		if err != nil {
			return err
		}
		suiteRSS = append(suiteRSS, rss)
		suiteWall = append(suiteWall, d.Seconds())
		suiteMIPS = append(suiteMIPS, float64(st.ins+uint64(mixes)*4*figIns)/1e6/d.Seconds())
		latency = append(latency, st.latency...)
		if tr != nil {
			spanned = append(spanned, d.Seconds())
		} else {
			bare = append(bare, d.Seconds())
		}
		if time.Since(start)+d > r.seconds {
			break
		}
	}
	elapsed := time.Since(start)
	rep.set("sim_mips", median(suiteMIPS))
	rep.set("suite_s", median(suiteWall))
	rep.set("op_p50_ms", median(latency))
	rep.set("peak_rss_mb", median(suiteRSS))
	rep.note("%d suites of %d runs and %d 4-core mixes in %.1fs", len(suiteWall), check.runs, mixes, elapsed.Seconds())
	rep.set("sim.alloc_kb_per_run", float64(ms1.TotalAlloc-ms0.TotalAlloc)/1024/float64(check.runs+mixes))
	rep.set("figures.runs_executed", float64(check.runs))
	rep.set("figures.worker_util", (cpuTime()-cpu0).Seconds()/(figWorkers*elapsed.Seconds()))
	rep.set("figures.mix_share", float64(mixes)/float64(check.runs+mixes))
	r.zeroServe()
	if !r.traced {
		rep.set("figures.memo_hit_ratio", 0)
		return nil
	}
	if len(spanned) > 0 && len(bare) > 0 {
		rep.set("obs.bench_trace_overhead_pct", 100*(median(spanned)/median(bare)-1))
	} else {
		rep.set("obs.bench_trace_overhead_pct", 0)
		rep.note("one suite only: no tracing-overhead comparison")
	}

	// The memo saves every run that some experiment would execute on a
	// session of its own but that the shared session already holds.
	alone := 0
	for _, e := range figures.Experiments() {
		st := &suiteStats{}
		s := newSuite(figWorkers, nil, st)
		if _, err := e.Run(s, ctx); err != nil {
			return fmt.Errorf("%s alone: %w", e.ID, err)
		}
		alone += st.runs
	}
	rep.set("figures.memo_hit_ratio", 1-float64(check.runs)/float64(alone))

	var jobs []simJob
	for _, o := range sim.OrgKinds() {
		if j, ok := check.first[sim.OrgKind(o)]; ok {
			jobs = append(jobs, j)
		}
	}
	return r.layerPass(ctx, jobs, extraOrgJobs(jobs))
}
