package serve

// The supervisor side of the worker-process pool. Each simulation
// dispatched here runs in a child process (the service's own binary
// re-exec'd with BVSIMD_WORKER=1), so a crash — a segfault, an OOM
// kill, a chaos SIGKILL — costs one attempt, never the service.
//
// Workers are long-lived. A dispatch hands the job to an idle worker,
// or starts one when none is idle; nothing is started ahead of demand.
// Only the service's dispatchers run jobs, each one at a time, so no
// more workers are ever alive than there are dispatchers.
// A worker that answers (a result or a structured failure) goes back
// to the idle set for the next job. A worker that crashed, hung, was
// cancelled mid-run or broke the protocol is reaped and never reused;
// the next dispatch starts a fresh one. An idle worker that died is
// noticed when it is next picked, reaped, and replaced without costing
// the job an attempt. Drain retires every idle worker by closing its
// stdin, so no worker outlives the service. The supervisor:
//
//   - watches the heartbeat stream and SIGKILLs a worker that goes
//     silent past the hung-run horizon (livelock detection);
//   - retries crashed and hung attempts with capped exponential
//     backoff and seeded jitter (deterministic under test);
//   - never retries structured failures (checker violations,
//     contained panics, bad configs) — those are deterministic
//     properties of the key, so the first answer is the answer;
//   - quarantines a key after MaxAttempts crash-type failures:
//     later requests fail fast with a structured error instead of
//     burning worker slots on a poison run.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/exec"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	otrace "basevictim/internal/obs/trace"
	"basevictim/internal/sim"
	"basevictim/internal/workload"
)

// RunError is a structured, client-visible run failure. Kind is one of
// "violation", "panic", "error", or "quarantined"; the HTTP layer maps
// it to a status code and the JSON error body, so no fault class ever
// degenerates into an opaque 500 string — and never into a silently
// wrong table.
type RunError struct {
	Kind     string `json:"kind"`
	Msg      string `json:"error"`
	Attempts int    `json:"attempts,omitempty"`
}

func (e *RunError) Error() string { return e.Msg }

const kindQuarantined = "quarantined"

type poolConfig struct {
	argv        []string      // worker command line (the service binary itself)
	heartbeat   time.Duration // worker heartbeat period
	hungAfter   time.Duration // silence horizon before a worker is presumed hung
	maxAttempts int           // dispatched attempts per key before quarantine
	backoffBase time.Duration // first retry delay (pre-jitter)
	backoffCap  time.Duration // retry delay ceiling
	seed        uint64        // jitter seed: chaos tests replay exact schedules
	chaos       *chaosSpec    // injected faults, nil for none
}

type pool struct {
	cfg poolConfig
	m   *metrics

	jitterMu sync.Mutex
	jitter   *rand.Rand

	// dispatches counts attempts handed to a worker, service-wide; the
	// chaos spec addresses faults by this index.
	dispatches atomic.Int64

	mu          sync.Mutex
	quarantined map[string]*RunError
	idle        []*proc // live workers waiting for a job, most recent last
}

func newPool(cfg poolConfig, m *metrics) *pool {
	if cfg.heartbeat <= 0 {
		cfg.heartbeat = 250 * time.Millisecond
	}
	if cfg.hungAfter <= 0 {
		cfg.hungAfter = 10 * cfg.heartbeat
	}
	if cfg.maxAttempts <= 0 {
		cfg.maxAttempts = 3
	}
	if cfg.backoffBase <= 0 {
		cfg.backoffBase = 50 * time.Millisecond
	}
	if cfg.backoffCap <= 0 {
		cfg.backoffCap = 2 * time.Second
	}
	seed := cfg.seed
	if seed == 0 {
		seed = 1
	}
	return &pool{
		cfg:         cfg,
		m:           m,
		jitter:      rand.New(rand.NewSource(int64(seed))),
		quarantined: make(map[string]*RunError),
	}
}

func quarantineKey(trace string, cfg sim.Config) string {
	return fmt.Sprintf("%s|%#v", trace, cfg)
}

func (pl *pool) quarantineFor(key string) *RunError {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	return pl.quarantined[key]
}

func (pl *pool) quarantineCount() int {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	return len(pl.quarantined)
}

// run is the figures.Session runner: it executes one (trace, config)
// in a supervised worker process, retrying transient faults. It is
// called on cache and checkpoint misses only, so every retry here is
// work that genuinely has to happen.
func (pl *pool) run(ctx context.Context, p workload.Profile, cfg sim.Config) (sim.Result, error) {
	key := quarantineKey(p.Name, cfg)
	if re := pl.quarantineFor(key); re != nil {
		return sim.Result{}, re
	}
	parent := otrace.FromContext(ctx)
	var lastCrash error
	for attempt := 1; attempt <= pl.cfg.maxAttempts; attempt++ {
		if attempt > 1 {
			pl.m.touch(pl.m.retries.Inc)
			bsp := parent.Child("worker.backoff", otrace.KindInternal)
			err := sleepCtx(ctx, pl.backoff(attempt))
			bsp.End()
			if err != nil {
				return sim.Result{}, err
			}
		}
		asp := parent.Child("worker.attempt", otrace.KindClient)
		asp.SetAttrInt("attempt", int64(attempt))
		res, retryable, err := pl.attempt(ctx, asp, p.Name, cfg)
		switch {
		case err == nil:
			pl.m.touch(func() { pl.m.attempts.Observe(uint64(attempt)) })
			return res, nil
		case !retryable:
			return sim.Result{}, err
		}
		lastCrash = err
		pl.m.touch(pl.m.restarts.Inc)
	}
	re := &RunError{
		Kind: kindQuarantined,
		Msg: fmt.Sprintf("%s on %s quarantined after %d failed attempts (last: %v)",
			p.Name, cfg.Org, pl.cfg.maxAttempts, lastCrash),
		Attempts: pl.cfg.maxAttempts,
	}
	pl.mu.Lock()
	pl.quarantined[key] = re
	pl.mu.Unlock()
	pl.m.touch(pl.m.quarantined.Inc)
	return sim.Result{}, re
}

// backoff computes the pre-attempt delay: capped exponential in the
// attempt number, scaled by seeded jitter in [0.5, 1.5) so a thundering
// herd of retries decorrelates — deterministically, given the seed.
func (pl *pool) backoff(attempt int) time.Duration {
	d := pl.cfg.backoffBase << uint(attempt-2)
	if d <= 0 || d > pl.cfg.backoffCap {
		d = pl.cfg.backoffCap
	}
	pl.jitterMu.Lock()
	f := 0.5 + pl.jitter.Float64()
	pl.jitterMu.Unlock()
	return time.Duration(float64(d) * f)
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// proc is one live worker process and the goroutine reading its
// stdout.
type proc struct {
	cmd    *exec.Cmd
	stdin  io.WriteCloser
	stdout io.ReadCloser
	enc    *json.Encoder
	errBuf bytes.Buffer // stderr; read only after reap
	// lines carries decoded stdout lines; the reader closes it at EOF.
	// Unbuffered, so a heartbeat is observed the moment it arrives.
	lines chan workerLine
}

// spawn starts a worker process and its stdout reader.
func (pl *pool) spawn() (*proc, error) {
	cmd := exec.Command(pl.cfg.argv[0], pl.cfg.argv[1:]...)
	cmd.Env = append(os.Environ(), workerEnvVar+"=1")
	w := &proc{cmd: cmd, lines: make(chan workerLine)}
	cmd.Stderr = &w.errBuf
	var err error
	if w.stdout, err = cmd.StdoutPipe(); err != nil {
		return nil, fmt.Errorf("worker pipe: %w", err)
	}
	if w.stdin, err = cmd.StdinPipe(); err != nil {
		return nil, fmt.Errorf("worker pipe: %w", err)
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("worker start: %w", err)
	}
	w.enc = json.NewEncoder(w.stdin)
	pl.m.touch(pl.m.workerSpawns.Inc)
	// The reader ends at stdout EOF: when the worker exits, or when
	// reap closes the pipe. Every proc goes through reap, which drains
	// lines to the close.
	go func() {
		defer close(w.lines)
		sc := bufio.NewScanner(w.stdout)
		sc.Buffer(make([]byte, 64*1024), 16*1024*1024)
		for sc.Scan() {
			var ln workerLine
			if json.Unmarshal(sc.Bytes(), &ln) != nil {
				continue // stray stdout noise neither feeds nor resets the watchdog
			}
			w.lines <- ln
		}
	}()
	return w, nil
}

// kill SIGKILLs the worker; already-dead is fine.
func (w *proc) kill() {
	w.cmd.Process.Kill() //nolint:errcheck // already-dead is fine
}

// reap drains the reader goroutine and collects the process; every
// proc must end here or its reader leaks. The worker must already be
// dying (killed, or its stdin closed).
func (w *proc) reap() error {
	//lint:allow gorolifecycle one-shot pipe Close returns promptly; it exists to unblock the scanner goroutine
	go w.stdout.Close() //nolint:errcheck // unblocks the scanner if the worker never closes its end
	for range w.lines {
	}
	return w.cmd.Wait()
}

// idleOK reports whether an idle worker is still fit for a job. An
// idle worker says nothing, so a closed stdout means it died and any
// line at all is a protocol error; either way it is replaced.
func (w *proc) idleOK() bool {
	select {
	case <-w.lines:
		return false
	default:
		return true
	}
}

// takeIdle returns an idle worker that is still alive, reaping any
// that died while idle, or nil when none is left.
func (pl *pool) takeIdle() *proc {
	for {
		pl.mu.Lock()
		var w *proc
		if n := len(pl.idle); n > 0 {
			w = pl.idle[n-1]
			pl.idle = pl.idle[:n-1]
		}
		pl.mu.Unlock()
		if w == nil || w.idleOK() {
			return w
		}
		w.kill()
		w.reap() //nolint:errcheck // an idle death has no job to report on
	}
}

// release returns a worker that finished its job cleanly to the idle
// set.
func (pl *pool) release(w *proc) {
	pl.mu.Lock()
	pl.idle = append(pl.idle, w)
	pl.mu.Unlock()
}

// close retires every idle worker. Drain calls it once the dispatchers
// have stopped, so no worker is busy by then and none outlives the
// service.
func (pl *pool) close() {
	pl.mu.Lock()
	idle := pl.idle
	pl.idle = nil
	pl.mu.Unlock()
	for _, w := range idle {
		// Closing stdin is the worker's signal to exit; one that does
		// not within the hung-run horizon is killed.
		w.stdin.Close() //nolint:errcheck // the worker reads EOF either way
		t := time.AfterFunc(pl.cfg.hungAfter, w.kill)
		w.reap() //nolint:errcheck // an idle worker's exit status carries no result
		t.Stop()
	}
}

// attempt dispatches one job to a worker and shepherds it to an
// outcome. retryable marks faults worth another attempt (crash, hang);
// structured simulation failures and context cancellation are
// terminal. sp is the attempt's span; the supervisor owns it because
// the worker is a child process with no tracer. Under it go a
// worker.spawn span when the attempt had to start a process (process
// start to first heartbeat) and a worker.run span grafted from the
// times the worker reports on its terminal line.
func (pl *pool) attempt(ctx context.Context, sp *otrace.Span, trace string, cfg sim.Config) (res sim.Result, retryable bool, err error) {
	heartbeats := 0
	defer func() {
		sp.SetAttrInt("heartbeats", int64(heartbeats))
		if retryable {
			sp.SetAttr("retryable", "true")
		}
		sp.Fail(err)
		sp.End()
	}()
	dispatch := int(pl.dispatches.Add(1))
	act := pl.cfg.chaos.action(dispatch)
	sp.SetAttrInt("dispatch", int64(dispatch))

	w := pl.takeIdle()
	var ssp *otrace.Span // open from process start to first heartbeat
	defer func() { ssp.End() }()
	if w == nil {
		ssp = sp.Child("worker.spawn", otrace.KindInternal)
		if w, err = pl.spawn(); err != nil {
			ssp.Fail(err)
			return sim.Result{}, true, err
		}
	}
	env := jobEnvelope{
		Trace:       trace,
		Config:      cfg,
		HeartbeatMS: int(pl.cfg.heartbeat / time.Millisecond),
		Stall:       act == chaosStall,
	}
	w.enc.Encode(env) //nolint:errcheck // a dead worker surfaces as EOF-without-result below

	// Any exit that does not hand the worker back goes through fail,
	// which kills and reaps it.
	fail := func() error {
		w.kill()
		return w.reap()
	}
	watchdog := time.NewTimer(pl.cfg.hungAfter)
	defer watchdog.Stop()
	sawHeartbeat := false
	for {
		select {
		case <-ctx.Done():
			fail() //nolint:errcheck // the context error is the story
			return sim.Result{}, false, ctx.Err()
		case <-watchdog.C:
			fail() //nolint:errcheck // the hang is the story
			pl.m.touch(pl.m.hungKills.Inc)
			return sim.Result{}, true, fmt.Errorf(
				"worker hung on %s (dispatch %d): no heartbeat within %v; killed",
				trace, dispatch, pl.cfg.hungAfter)
		case ln, ok := <-w.lines:
			if !ok {
				werr := fail()
				msg := strings.TrimSpace(w.errBuf.String())
				if msg != "" {
					msg = "; stderr: " + msg
				}
				return sim.Result{}, true, fmt.Errorf(
					"worker for %s (dispatch %d) exited without a result: %v%s",
					trace, dispatch, werr, msg)
			}
			if !watchdog.Stop() {
				select {
				case <-watchdog.C:
				default:
				}
			}
			watchdog.Reset(pl.cfg.hungAfter)
			if ln.Result == nil && ln.Error == "" { // heartbeat
				if !sawHeartbeat {
					ssp.End()
				}
				heartbeats++
				if act == chaosKill && !sawHeartbeat {
					// Chaos: the worker dies right after proving it was
					// alive — the harshest crash point, since the
					// supervisor cannot tell it from a mid-run segfault.
					pl.m.touch(pl.m.chaosKills.Inc)
					w.kill()
				}
				sawHeartbeat = true
				continue
			}
			end := time.Now()
			sp.Record("worker.run", otrace.KindInternal,
				end.Add(-time.Duration(ln.SetupUS+ln.RunUS)*time.Microsecond), end,
				otrace.Attr{K: "setup_us", V: fmt.Sprint(ln.SetupUS)},
				otrace.Attr{K: "run_us", V: fmt.Sprint(ln.RunUS)})
			pl.release(w)
			if ln.Result != nil {
				return *ln.Result, false, nil
			}
			kind := ln.Kind
			if kind == "" {
				kind = kindError
			}
			return sim.Result{}, false, &RunError{Kind: kind, Msg: ln.Error}
		}
	}
}
