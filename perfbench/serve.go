package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"basevictim/internal/figures"
	"basevictim/internal/sim"
	"basevictim/internal/workload"
)

// serve-mixed drives bvsimd, started as a real process with its
// defaults (two worker processes) and a checkpoint store, over HTTP.
const (
	serveIns     = 100_000
	serveWorkers = 2 // bvsimd's default -workers
	// serveConns bounds the load generator's connections to the host's
	// two cores, so the generator never outnumbers the workers.
	serveConns = 2
	// loRate and hiRate are the fixed open-loop rates in requests per
	// second: about 40% and 75% of the miss capacity of a 2-core host.
	loRate = 20.0
	hiRate = 36.0
	// goodputLimit is the latency within which a hi-rate request counts
	// towards goodput.
	goodputLimit = 500 * time.Millisecond
	// suiteBatch fresh misses make one closed-loop suite pass.
	suiteBatch  = 18 // three of each trace and organization pair
	suitePasses = 10
	checkSample = 200
	setupStarts = 15
)

var servePlan = loadPlan{
	traces:   []string{"mcf.p1", "libquantum.p1", "omnetpp.p1"},
	orgs:     []string{string(sim.OrgBaseVictim), string(sim.OrgUncompressed)},
	baseIns:  serveIns,
	hitShare: 0.25,
	hitLag:   2 * time.Second,
}

// server is one running bvsimd.
type server struct {
	cmd  *exec.Cmd
	addr string
	done chan error
}

// startServer execs bvsimd and returns once /healthz answers 200,
// with the time that took.
func (r *run) startServer(ctx context.Context, storeDir string, extra ...string) (*server, time.Duration, error) {
	if r.bvsimd == "" {
		return nil, 0, errors.New("serve-mixed needs -bvsimd")
	}
	args := append([]string{"-listen", "127.0.0.1:0", "-cache-dir", storeDir}, extra...)
	cmd := exec.Command(r.bvsimd, args...)
	logf, err := os.OpenFile(filepath.Join(r.out, "bvsimd.log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, 0, err
	}
	defer logf.Close()
	cmd.Stderr = logf
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, err
	}
	s := &server{cmd: cmd, done: make(chan error, 1)}
	addrc := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if a, ok := strings.CutPrefix(sc.Text(), "bvsimd: serving on "); ok {
				addrc <- strings.Fields(a)[0]
			}
		}
		close(addrc)
		s.done <- cmd.Wait()
	}()
	fail := func(err error) (*server, time.Duration, error) {
		s.stop()
		return nil, 0, err
	}
	select {
	case a, ok := <-addrc:
		if !ok {
			return fail(errors.New("bvsimd exited before serving"))
		}
		s.addr = "http://" + a
	case <-time.After(30 * time.Second):
		return fail(errors.New("bvsimd did not report its address"))
	}
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(time.Millisecond) {
		resp, err := http.Get(s.addr + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, time.Since(t0), nil
			}
		}
		if time.Now().After(deadline) {
			return fail(errors.New("bvsimd /healthz never answered 200"))
		}
	}
}

// stop drains the server with SIGTERM and waits for it to exit,
// killing it if the drain hangs.
func (s *server) stop() error {
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return <-s.done
	}
	select {
	case err := <-s.done:
		return err
	case <-time.After(60 * time.Second):
		s.cmd.Process.Kill()
		<-s.done
		return errors.New("bvsimd drain hung; killed")
	}
}

type outcome struct {
	req    request
	due    time.Time
	sent   time.Time
	done   time.Time
	status int
	res    *sim.Result
	err    error
	trace  string
}

func (o *outcome) ok() bool { return o.err == nil && o.status == http.StatusOK }

func (o *outcome) latency() float64 { return ms(o.done.Sub(o.due)) }

// client posts runs over at most serveConns connections.
type client struct {
	hc   *http.Client
	url  string
	seed uint64

	mu       sync.Mutex
	answered map[reqKey]bool
	// tr, when set, receives a span per completed request (under mu).
	tr *tracer
}

func newClient(addr string, seed uint64) *client {
	tr := &http.Transport{MaxConnsPerHost: serveConns, MaxIdleConnsPerHost: serveConns, DisableCompression: true}
	return &client{hc: &http.Client{Transport: tr, Timeout: 2 * time.Minute}, url: addr, seed: seed,
		answered: map[reqKey]bool{}}
}

// do sends one request; o.due must be set. The trace header carries an
// ID derived from the seed and sequence number, which joins the client
// span to the spans bvsimd exports.
func (c *client) do(ctx context.Context, o *outcome) {
	o.trace = fmt.Sprintf("%08x%08x", uint32(c.seed), uint32(o.req.seq+1))
	body, _ := json.Marshal(map[string]any{ // plain strings and numbers always marshal
		"trace": o.req.key.Trace, "instructions": o.req.key.Ins,
		"config": map[string]string{"Org": o.req.key.Org},
	})
	o.sent = time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.url+"/v1/run", bytes.NewReader(body))
	if err != nil {
		o.err = err
		return
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-BV-Trace", o.trace)
	resp, err := c.hc.Do(req)
	if err != nil {
		o.err, o.done = err, time.Now()
		return
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	o.done, o.status = time.Now(), resp.StatusCode
	if err != nil {
		o.err = err
		return
	}
	if resp.StatusCode != http.StatusOK {
		return
	}
	var rr struct {
		Result sim.Result `json:"result"`
	}
	if err := json.Unmarshal(b, &rr); err != nil {
		o.err = err
		return
	}
	o.res = &rr.Result
	c.mu.Lock()
	c.answered[o.req.key] = true
	c.mu.Unlock()
}

// record closes a request: its span from the due time, with the
// generator's lateness as a child, when the client traces.
func (c *client) record(o *outcome) {
	if c.tr == nil || o.done.IsZero() {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	t0 := c.tr.t0
	id := c.tr.add("client.request", 0, o.trace, int64(o.due.Sub(t0)), int64(o.done.Sub(t0)))
	c.tr.add("client.lag", id, o.trace, int64(o.due.Sub(t0)), int64(o.sent.Sub(t0)))
}

// openLoop sends every request at its due time, whatever the state of
// earlier ones, and returns when all have completed. unanswered counts
// hits whose key had no answer yet when they were sent.
func (c *client) openLoop(ctx context.Context, reqs []request) (outs []outcome, unanswered int) {
	outs = make([]outcome, len(reqs))
	start := time.Now().Add(10 * time.Millisecond)
	var wg sync.WaitGroup
	for i := range reqs {
		o := &outs[i]
		o.req = reqs[i]
		o.due = start.Add(reqs[i].at)
		time.Sleep(time.Until(o.due))
		if o.req.hit {
			c.mu.Lock()
			if !c.answered[o.req.key] {
				unanswered++
			}
			c.mu.Unlock()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.do(ctx, o)
			c.record(o)
		}()
	}
	wg.Wait()
	return outs, unanswered
}

// closedLoop sends the requests over serveConns senders, each waiting
// for its answer before the next, and returns the outcomes and the
// wall time.
func (c *client) closedLoop(ctx context.Context, reqs []request) ([]outcome, time.Duration) {
	outs := make([]outcome, len(reqs))
	next := make(chan int)
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := 0; w < serveConns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				outs[i].req = reqs[i]
				outs[i].due = time.Now()
				c.do(ctx, &outs[i])
				c.record(&outs[i])
			}
		}()
	}
	for i := range reqs {
		next <- i
	}
	close(next)
	wg.Wait()
	return outs, time.Since(t0)
}

// freshKeys makes n miss keys below the schedule's budgets (which
// start above serveIns), so they never collide with it. Every trace and
// organization pair appears equally often (n is a multiple of their
// count), so batches cost the same whatever the seed; the seed orders
// them.
func freshKeys(rng *rand.Rand, phase string, n int, below uint64, seqBase int) []request {
	out := make([]request, n)
	orgs := len(servePlan.orgs)
	for i := range out {
		out[i] = request{seq: seqBase + i, phase: phase, of: -1, key: reqKey{
			Trace: servePlan.traces[i/orgs%len(servePlan.traces)],
			Org:   servePlan.orgs[i%orgs],
			Ins:   below - uint64(i),
		}}
	}
	rng.Shuffle(n, func(i, j int) { out[i].key, out[j].key = out[j].key, out[i].key })
	return out
}

// procCPU returns a process's CPU time including its reaped children
// (bvsimd reaps its workers), from /proc/<pid>/stat.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+2:])
	var ticks int64
	for _, i := range []int{11, 12, 13, 14} { // utime stime cutime cstime
		v, err := strconv.ParseInt(f[i], 10, 64)
		if err != nil {
			return 0, err
		}
		ticks += v
	}
	return time.Duration(ticks) * 10 * time.Millisecond, nil // USER_HZ is 100 on Linux
}

// workerRSS polls the server's child processes for their resident
// high-water marks until stop closes, returning the largest seen.
func workerRSS(pid int, stop <-chan struct{}) <-chan float64 {
	out := make(chan float64, 1)
	go func() {
		peak := 0.0
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			b, _ := os.ReadFile(fmt.Sprintf("/proc/%d/task/%d/children", pid, pid))
			for _, c := range strings.Fields(string(b)) {
				if v, err := peakRSSMB(c); err == nil && v > peak {
					peak = v
				}
			}
			select {
			case <-stop:
				out <- peak
				return
			case <-tick.C:
			}
		}
	}()
	return out
}

type status struct {
	Metrics struct {
		Counters map[string]uint64 `json:"counters"`
	} `json:"metrics"`
}

func (c *client) status(ctx context.Context) (status, error) {
	var st status
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.url+"/statusz", nil)
	if err != nil {
		return st, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

func runServe(ctx context.Context, r *run) error {
	rep := r.rep
	if r.update {
		return nil // checked against in-process runs, not goldens
	}
	root := filepath.Join(r.out, fmt.Sprintf("serve-%d", r.seed))
	if err := os.RemoveAll(root); err != nil {
		return err
	}
	defer os.RemoveAll(root)

	// Set-up: exec to a healthy /healthz, setupStarts times; the last
	// server carries the load.
	var setup []float64
	var srv *server
	extra := []string{}
	exportPath := filepath.Join(r.out, fmt.Sprintf("bvsimd-spans-%d.jsonl", r.seed))
	if r.traced {
		extra = []string{"-trace-capacity", "16384", "-trace-export", exportPath}
	}
	for i := 0; i < setupStarts; i++ {
		s, d, err := r.startServer(ctx, filepath.Join(root, fmt.Sprintf("store%d", i)), extra...)
		if err != nil {
			return err
		}
		setup = append(setup, d.Seconds())
		if i < setupStarts-1 {
			if err := s.stop(); err != nil {
				return fmt.Errorf("bvsimd stop: %w", err)
			}
			continue
		}
		srv = s
	}
	rep.set("setup_s", median(setup))
	running := true
	defer func() {
		if running {
			srv.stop()
		}
	}()
	pid := srv.cmd.Process.Pid
	cl := newClient(srv.addr, r.seed)
	rng := rand.New(rand.NewSource(int64(r.seed) ^ 0x5eed))

	// Warm-up, then the closed-loop suite: fresh misses over both
	// connections, timed as a batch. Traced runs alternate client spans.
	warm, _ := cl.closedLoop(ctx, freshKeys(rng, "warm", 6, serveIns-10_000, 1<<20))
	var suiteWall, suiteMIPS, spanned, bare []float64
	all := warm
	for p := 0; p < suitePasses; p++ {
		cl.tr = nil
		if p%2 == 0 {
			cl.tr = r.tr
		}
		batch := freshKeys(rng, "suite", suiteBatch, serveIns-1-uint64(p*suiteBatch), 1<<21+p*suiteBatch)
		outs, d := cl.closedLoop(ctx, batch)
		suiteWall = append(suiteWall, d.Seconds())
		var ins uint64
		for _, o := range outs {
			ins += o.req.key.Ins
		}
		suiteMIPS = append(suiteMIPS, float64(ins)/1e6/d.Seconds())
		if cl.tr != nil {
			spanned = append(spanned, d.Seconds())
		} else {
			bare = append(bare, d.Seconds())
		}
		all = append(all, outs...)
	}
	rep.set("suite_s", median(suiteWall))
	rep.set("sim_mips", median(suiteMIPS))
	// The unloaded miss latency: the suite keeps at most two requests in
	// flight on two workers, so nothing queues.
	var suiteLat []float64
	for _, o := range all[len(warm):] {
		if o.ok() {
			suiteLat = append(suiteLat, o.latency())
		}
	}
	rep.set("op_p50_ms", median(suiteLat))

	// Open loop: the lo phase, then the hi phase, for the rest of the
	// measured time.
	left := r.seconds - time.Duration(sum(suiteWall)*float64(time.Second))
	if left < 2*time.Second {
		left = 2 * time.Second
	}
	phases := []phase{{"lo", loRate, left / 2}, {"hi", hiRate, left / 2}}
	sched := servePlan.schedule(r.seed, phases)
	cl.tr = r.tr
	stopRSS := make(chan struct{})
	rssc := workerRSS(pid, stopRSS)
	cpu0, _ := procCPU(pid)
	t0 := time.Now()
	outs, unanswered := cl.openLoop(ctx, sched)
	wallOpen := time.Since(t0)
	cpu1, _ := procCPU(pid)
	close(stopRSS)
	maxWorker := <-rssc
	all = append(all, outs...)
	if unanswered > 0 {
		rep.note("%d hits were sent before their key's first answer arrived", unanswered)
	}
	st, err := cl.status(ctx)
	if err != nil {
		return fmt.Errorf("statusz: %w", err)
	}
	supRSS, err := peakRSSMB(strconv.Itoa(pid))
	if err != nil {
		return err
	}
	rep.set("peak_rss_mb", supRSS+maxWorker)

	// Drain, then verify the store.
	running = false
	if err := srv.stop(); err != nil {
		rep.fail("bvsimd drain: %v", err)
	}
	if n, err := figures.VerifyDir(filepath.Join(root, fmt.Sprintf("store%d", setupStarts-1))); err != nil {
		rep.fail("checkpoint store: %v", err)
	} else {
		rep.note("checkpoint store verified: %d records", n)
	}

	// Outcomes.
	lat := map[string][]float64{}
	var shed, lags []float64
	misses := map[reqKey]bool{}
	goodput := 0
	for i := range all {
		o := &all[i]
		rep.attempted++
		if !o.ok() {
			rep.failed++
			if o.status == http.StatusTooManyRequests || o.status == http.StatusServiceUnavailable {
				shed = append(shed, 1)
			}
			continue
		}
		if !o.req.hit {
			misses[o.req.key] = true
		}
		if o.req.phase == "suite" || o.req.phase == "warm" {
			continue
		}
		lags = append(lags, ms(o.sent.Sub(o.due)))
		kind := "miss"
		if o.req.hit {
			kind = "hit"
		}
		lat[kind+"."+o.req.phase] = append(lat[kind+"."+o.req.phase], o.latency())
		lat[kind] = append(lat[kind], o.latency())
		if o.req.phase == "hi" && o.done.Sub(o.due) <= goodputLimit {
			goodput++
		}
	}
	pct := func(name string, xs []float64, q float64) {
		v, ok := percentile(xs, q)
		rep.set(name, v)
		if ok {
			return
		}
		rep.note("%s rests on %d samples, fewer than %d beyond it", name, len(xs), minBeyond)
		if hq, hv, ok := highestPercentile(xs, 0.5, 0.75, 0.9); ok {
			rep.note("  the highest percentile with %d beyond it: p%.0f = %.1f ms", minBeyond, 100*hq, hv)
		}
	}
	for _, ph := range []string{"lo", "hi"} {
		xs := lat["miss."+ph]
		rep.set("serve.miss_p50_ms."+ph, median(xs))
		pct("serve.miss_p95_ms."+ph, xs, 0.95)
		rep.set("serve.miss_n."+ph, float64(len(xs)), "count")
	}
	rep.set("serve.hit_p50_ms", median(lat["hit"]))
	pct("serve.hit_p95_ms", lat["hit"], 0.95)
	rep.set("serve.hit_n", float64(len(lat["hit"])), "count")
	rep.set("serve.goodput_rps.hi", float64(goodput)/phases[1].dur.Seconds())
	rep.set("serve.shed_frac", float64(len(shed))/float64(rep.attempted))
	lag99, _ := percentile(lags, 0.99)
	rep.set("gen.lag_ms.p99", lag99)
	if lag99 > 50 {
		rep.note("generator ran %.1fms late at p99: this run's latencies are not valid", lag99)
	}
	c := st.Metrics.Counters
	rep.set("serve.resim_on_hit", float64(c["serve.runs_executed"])-float64(len(misses)))
	rep.set("figures.runs_executed", float64(c["serve.runs_executed"]))
	if done := c["serve.completed"]; done > 0 {
		rep.set("figures.memo_hit_ratio", 1-float64(c["serve.runs_executed"])/float64(done))
	} else {
		rep.set("figures.memo_hit_ratio", 0)
	}
	rep.set("figures.worker_util", (cpu1-cpu0).Seconds()/(serveWorkers*wallOpen.Seconds()))
	rep.set("figures.mix_share", 0)

	// Output check, outside the timed window: a seeded sample of the
	// answers against in-process runs of the same keys.
	inproc, err := r.checkAnswers(ctx, all, rng)
	if err != nil {
		return err
	}

	// The in-process simulator metrics for this workload's requests.
	setupRuns, err := measureSetup(ctx, servePlan.traces[0], sim.Default())
	if err != nil {
		return err
	}
	rep.set("sim.cold_setup_ms", setupRuns[0]*1000)
	rep.set("sim.setup_ms", median(setupRuns[1:])*1000)
	if !r.traced {
		return nil
	}
	if len(spanned) > 0 && len(bare) > 0 {
		rep.set("obs.bench_trace_overhead_pct", 100*(median(spanned)/median(bare)-1))
	}
	if err := r.joinServerSpans(exportPath, all, inproc); err != nil {
		return err
	}
	var jobs []simJob
	suite := workload.Suite()
	for _, t := range servePlan.traces {
		p, _ := workload.ByName(suite, t)
		for _, o := range servePlan.orgs {
			cfg := sim.Default()
			cfg.Org, cfg.Instructions = sim.OrgKind(o), serveIns
			jobs = append(jobs, simJob{p, cfg})
		}
	}
	return r.layerPass(ctx, jobs, extraOrgJobs(jobs))
}

// checkAnswers compares a seeded sample of successful answers with
// in-process sim.RunSingleCtx runs of the same keys, and returns the
// in-process run time of each sampled key.
func (r *run) checkAnswers(ctx context.Context, all []outcome, rng *rand.Rand) (map[reqKey]float64, error) {
	var okIdx []int
	for i := range all {
		if all[i].ok() {
			okIdx = append(okIdx, i)
		}
	}
	rng.Shuffle(len(okIdx), func(i, j int) { okIdx[i], okIdx[j] = okIdx[j], okIdx[i] })
	if len(okIdx) > checkSample {
		okIdx = okIdx[:checkSample]
	}
	suite := workload.Suite()
	type result struct {
		key reqKey
		ms  float64
	}
	var (
		mu     sync.Mutex
		inproc = map[reqKey]float64{}
		bad    []string
		wg     sync.WaitGroup
		errs   = make(chan error, serveConns)
		next   = make(chan int)
	)
	for w := 0; w < serveConns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				o := &all[i]
				p, ok := workload.ByName(suite, o.req.key.Trace)
				if !ok {
					errs <- fmt.Errorf("unknown trace %q", o.req.key.Trace)
					return
				}
				cfg := sim.Default()
				cfg.Org, cfg.Instructions = sim.OrgKind(o.req.key.Org), o.req.key.Ins
				t0 := time.Now()
				want, err := sim.RunSingleCtx(ctx, p, cfg)
				d := ms(time.Since(t0))
				if err != nil {
					errs <- err
					return
				}
				mu.Lock()
				inproc[o.req.key] = d
				if resultDigest(*o.res, false) != resultDigest(want, false) {
					bad = append(bad, fmt.Sprintf("%+v", o.req.key))
				}
				mu.Unlock()
			}
		}()
	}
	var err error
feed:
	for _, i := range okIdx {
		select {
		case next <- i:
		case err = <-errs:
			break feed
		}
	}
	close(next)
	wg.Wait()
	if err == nil && len(errs) > 0 {
		err = <-errs
	}
	if err != nil {
		return nil, err
	}
	sort.Strings(bad)
	for _, b := range bad {
		r.rep.fail("answer for %s differs from the in-process run", b)
	}
	r.rep.note("%d answers checked against in-process runs", len(okIdx))
	return inproc, nil
}

// exported is the part of a bvsimd flight-recorder line the benchmark
// reads.
type exported struct {
	Kind  string `json:"kind"`
	Trace string `json:"trace"`
	Spans []struct {
		ID      string `json:"id"`
		Parent  string `json:"parent"`
		Name    string `json:"name"`
		StartUS int64  `json:"start_us"`
		DurUS   int64  `json:"dur_us"`
	} `json:"spans"`
}

// joinServerSpans reads the spans bvsimd exported on drain, grafts
// them under the client spans with the same trace ID, and reports the
// serving path's per-layer times.
func (r *run) joinServerSpans(path string, all []outcome, inproc map[reqKey]float64) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("bvsimd trace export: %w", err)
	}
	defer f.Close()
	byTrace := map[string]*outcome{}
	for i := range all {
		if all[i].trace != "" {
			byTrace[all[i].trace] = &all[i]
		}
	}
	clientIDs := map[string]int{}
	for _, s := range r.tr.spans {
		if s.Name == "client.request" {
			clientIDs[s.Req] = s.ID
		}
	}
	durs := map[string][]float64{}
	var httpMS, overhead []float64
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<26)
	t0 := r.tr.t0.UnixNano()
	for sc.Scan() {
		var e exported
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			return fmt.Errorf("bvsimd trace export: %w", err)
		}
		o := byTrace[e.Trace]
		if e.Kind != "trace" || o == nil {
			continue
		}
		ids := map[string]int{}
		for _, s := range e.Spans {
			durs[s.Name] = append(durs[s.Name], float64(s.DurUS)/1000)
			parent, ok := ids[s.Parent]
			if !ok {
				parent = clientIDs[e.Trace]
			}
			start := s.StartUS*1000 - t0
			ids[s.ID] = r.tr.add(s.Name, parent, e.Trace, start, start+s.DurUS*1000)
			switch s.Name {
			case "serve.run":
				if o.ok() {
					httpMS = append(httpMS, ms(o.done.Sub(o.sent))-float64(s.DurUS)/1000)
				}
			case "worker.attempt":
				if d, ok := inproc[o.req.key]; ok && !o.req.hit {
					overhead = append(overhead, float64(s.DurUS)/1000-d)
				}
			}
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("bvsimd trace export: %w", err)
	}
	rep := r.rep
	rep.set("serve.http_ms.p50", median(httpMS))
	rep.set("serve.queue_wait_ms.p50", median(durs["queue.wait"]))
	q95, _ := percentile(durs["queue.wait"], 0.95)
	rep.set("serve.queue_wait_ms.p95", q95)
	rep.set("serve.worker_attempt_ms.p50", median(durs["worker.attempt"]))
	rep.set("serve.worker_overhead_ms.p50", median(overhead))
	rep.set("serve.store_write_ms.p50", median(durs["store.write"]))
	rep.set("serve.store_read_ms.p50", median(durs["store.read"]))
	self := selfTimes(r.tr.spans)
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		rep.note("self time %-20s %10.1f ms", n, ms(self[n]))
	}
	return nil
}
