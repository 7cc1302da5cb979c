package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"syscall"
	"time"

	"basevictim/internal/obs"
	"basevictim/internal/sim"
	"basevictim/internal/workload"
)

// simSpec is a serial single-thread workload: every trace under every
// organization in simOrgs, at one instruction budget.
type simSpec struct {
	traces []string
	ins    uint64
	// recIns caps the budget of the traced run's recordings, which
	// hold every call in memory.
	recIns uint64
}

var (
	// simLLC is LLC-bound: a compression-friendly pointer chaser, an
	// unfriendly trace and a streaming one, with the suite's heaviest
	// LLC, compressor and DRAM traffic.
	simLLC = simSpec{traces: []string{"mcf.p1", "cactusadm.p1", "sjeng.p1"}, ins: 1_000_000, recIns: 1_000_000}
	// simCore is L2-resident: the suite's lowest LLC traffic, so the
	// core loop, the generator and the private caches do the work. It
	// runs about 8x more instructions per run at about 8x the speed.
	simCore = simSpec{traces: []string{"sjeng.p2", "gobmk.p3", "octane.p6"}, ins: 8_000_000, recIns: 1_000_000}

	simOrgs = []sim.OrgKind{sim.OrgBaseVictim, sim.OrgUncompressed}
)

type simJob struct {
	p   workload.Profile
	cfg sim.Config
}

func (s simSpec) jobs(ins uint64) ([]simJob, error) {
	all := workload.Suite()
	var js []simJob
	for _, t := range s.traces {
		p, ok := workload.ByName(all, t)
		if !ok {
			return nil, fmt.Errorf("unknown trace %q", t)
		}
		for _, o := range simOrgs {
			cfg := sim.Default()
			cfg.Org = o
			cfg.Instructions = ins
			js = append(js, simJob{p, cfg})
		}
	}
	return js, nil
}

// extraOrgJobs runs the first job's trace under every organization
// the jobs do not cover, for the organization replays.
func extraOrgJobs(jobs []simJob) []simJob {
	have := map[sim.OrgKind]bool{}
	for _, j := range jobs {
		have[j.cfg.Org] = true
	}
	var out []simJob
	for _, o := range sim.OrgKinds() {
		if !have[sim.OrgKind(o)] {
			j := jobs[0]
			j.cfg.Org = sim.OrgKind(o)
			out = append(out, j)
		}
	}
	return out
}

// setupRepeats is how many times set-up is measured; the median is
// reported and the first (cold) sample is reported on its own.
const setupRepeats = 31

// measureSetup times what stands between a caller and its first
// simulated instruction: loading the suite and constructing a run (a
// RunSingleCtx with a one-instruction budget).
func measureSetup(ctx context.Context, trace string, cfg sim.Config) ([]float64, error) {
	cfg.Instructions = 1
	var out []float64
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		p, ok := workload.ByName(workload.Suite(), trace)
		if !ok {
			return nil, fmt.Errorf("unknown trace %q", trace)
		}
		if _, err := sim.RunSingleCtx(ctx, p, cfg); err != nil {
			return nil, err
		}
		out = append(out, time.Since(t0).Seconds())
	}
	return out, nil
}

func (r *run) reportSetup(samples []float64) {
	r.rep.set("setup_s", median(samples))
	r.rep.set("sim.cold_setup_ms", samples[0]*1000)
	r.rep.set("sim.setup_ms", median(samples[1:])*1000)
}

// runObserved runs a job with a metrics registry attached and checks
// both its plain and its observed digest.
func (r *run) runObserved(ctx context.Context, j simJob) error {
	res, err := sim.RunSingleCtx(sim.WithObserver(ctx, &sim.Observer{Registry: obs.NewRegistry()}), j.p, j.cfg)
	if err != nil {
		return err
	}
	key := runKey(j.p.Name, j.cfg)
	r.check(r.golden.Observed, key, resultDigest(res, true))
	r.check(r.golden.Runs, key, resultDigest(res, false))
	return nil
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func runSim(ctx context.Context, r *run, spec simSpec) error {
	rep := r.rep
	jobs, err := spec.jobs(spec.ins)
	if err != nil {
		return err
	}
	setup, err := measureSetup(ctx, spec.traces[0], jobs[0].cfg)
	if err != nil {
		return err
	}
	r.reportSetup(setup)

	// Check pass: untimed, with observers, so the metrics snapshot is
	// checked too. It also warms the arena pool and the page cache.
	for _, j := range jobs {
		if err := r.runObserved(ctx, j); err != nil {
			return err
		}
	}
	rep.attempted += len(jobs)
	if r.update {
		return nil
	}

	// Timed passes over the jobs in a seeded order, until the next pass
	// would overrun the measured time. A traced run alternates passes
	// with and without spans to measure the tracing overhead.
	rng := rand.New(rand.NewSource(int64(r.seed)))
	var passWall, passMIPS, runRSS, spanned, bare []float64
	runWall := make([][]float64, len(jobs))
	var ms0, ms1 runtime.MemStats
	start, cpu0 := time.Now(), cpuTime()
	for pass := 0; ; pass++ {
		if pass == 0 {
			runtime.ReadMemStats(&ms0)
		}
		var ins uint64
		tr := r.tr
		if pass%2 == 1 {
			tr = nil
		}
		t0 := time.Now()
		for _, i := range rng.Perm(len(jobs)) {
			j := jobs[i]
			if err := resetPeakRSS(); err != nil {
				return err
			}
			id := tr.start("sim.RunSingleCtx", 0, runKey(j.p.Name, j.cfg))
			ts := time.Now()
			res, err := sim.RunSingleCtx(ctx, j.p, j.cfg)
			runWall[i] = append(runWall[i], ms(time.Since(ts)))
			tr.end(id)
			rss, rerr := peakRSSMB("self")
			if rerr != nil {
				return rerr
			}
			runRSS = append(runRSS, rss)
			rep.attempted++
			if err != nil {
				rep.failed++
				rep.fail("%s: %v", runKey(j.p.Name, j.cfg), err)
				continue
			}
			ins += res.Instructions
			r.check(r.golden.Runs, runKey(j.p.Name, j.cfg), resultDigest(res, false))
		}
		d := time.Since(t0)
		if pass == 0 {
			runtime.ReadMemStats(&ms1)
		}
		passWall = append(passWall, d.Seconds())
		passMIPS = append(passMIPS, float64(ins)/1e6/d.Seconds())
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
	rep.set("sim_mips", median(passMIPS))
	rep.set("suite_s", median(passWall))
	// The jobs differ in length, so the median over all runs would jump
	// between jobs as the pass count changes: average each job's median.
	perJob := 0.0
	for _, w := range runWall {
		perJob += median(w) / float64(len(jobs))
	}
	rep.set("op_p50_ms", perJob)
	rep.set("peak_rss_mb", median(runRSS))
	rep.note("%d passes of %d runs of %d instructions in %.1fs; pass times %.3f s", len(passWall), len(jobs), spec.ins, elapsed.Seconds(), passWall)

	rep.set("sim.alloc_kb_per_run", float64(ms1.TotalAlloc-ms0.TotalAlloc)/1024/float64(len(jobs)))
	rep.set("figures.runs_executed", float64(len(jobs)))
	rep.set("figures.memo_hit_ratio", 0)
	rep.set("figures.worker_util", (cpuTime()-cpu0).Seconds()/elapsed.Seconds())
	rep.set("figures.mix_share", 0)
	r.zeroServe()
	if !r.traced {
		return nil
	}
	if len(spanned) > 0 && len(bare) > 0 {
		rep.set("obs.bench_trace_overhead_pct", 100*(median(spanned)/median(bare)-1))
	} else {
		rep.set("obs.bench_trace_overhead_pct", 0)
		rep.note("one pass only: no tracing-overhead comparison")
	}
	rj, err := spec.jobs(spec.recIns)
	if err != nil {
		return err
	}
	return r.layerPass(ctx, rj, extraOrgJobs(rj))
}

// zeroServe reports the serving-path metrics of an in-process
// workload: there is no server, queue or load generator, so each is 0.
func (r *run) zeroServe() {
	for _, name := range perLayer {
		if strings.HasPrefix(name, "serve.") || name == "gen.lag_ms.p99" {
			r.rep.set(name, 0)
		}
	}
}
