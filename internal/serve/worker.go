package serve

// The worker side of the supervisor/worker protocol. bvsimd re-execs
// its own binary with BVSIMD_WORKER=1 in the environment; the child
// calls WorkerMain, which serves jobs until its stdin ends. For each
// jobEnvelope (JSON) it reads from stdin, it:
//
//  1. emits an immediate first heartbeat line, then one every
//     HeartbeatMS while the simulation runs,
//  2. emits exactly one terminal line — {"result": ...} or
//     {"error": ..., "kind": ...} — carrying the time it spent in its
//     own setup and in the simulation, and nothing after it until the
//     next envelope.
//
// On stdin EOF it exits 0, so a supervisor that sends one job and
// closes stdin gets the one-job form. The supervisor reuses a worker
// across jobs and replaces it after a crash, a hang, a cancelled run
// or a protocol error (see pool.go).
//
// Everything on stdout is newline-delimited JSON; stderr is free-form
// diagnostics that the supervisor attaches to crash errors. A worker
// that dies without a terminal line (crash, OOM kill, chaos SIGKILL)
// is detected by the supervisor as EOF-without-result; a worker that
// stops heartbeating (livelock, stall) is killed by the hung-run
// watchdog. Exit codes are deliberately boring — the protocol carries
// the real outcome, so a structured failure (checker violation,
// contained panic) still exits 0.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"basevictim/internal/check"
	"basevictim/internal/sim"
	"basevictim/internal/workload"
)

// workerEnvVar marks a process as a bvsimd worker. cmd/bvsimd checks
// it first thing in main and diverts into WorkerMain.
const workerEnvVar = "BVSIMD_WORKER"

// jobEnvelope is one job for a worker process.
type jobEnvelope struct {
	Trace       string     `json:"trace"`
	Config      sim.Config `json:"config"`
	HeartbeatMS int        `json:"heartbeat_ms"`
	// Stall is chaos injection: heartbeat once, then hang without
	// output until killed, simulating a livelocked run. The supervisor
	// sets it from the chaos spec; it exists in the envelope (rather
	// than as worker-side clock logic) so the fault is exact and
	// deterministic.
	Stall bool `json:"stall,omitempty"`
}

// workerLine is one newline-delimited JSON message from the worker.
// Exactly one field group is set: HB for heartbeats, Result for
// success, Error+Kind for structured failure. Terminal lines also
// carry SetupUS, the worker's own time from envelope to simulation
// start, and RunUS, the time in sim.RunSingleCtx; the supervisor
// grafts them into the request trace as the worker.run span.
type workerLine struct {
	HB      bool        `json:"hb,omitempty"`
	Result  *sim.Result `json:"result,omitempty"`
	Error   string      `json:"error,omitempty"`
	Kind    string      `json:"kind,omitempty"`
	SetupUS int64       `json:"setup_us,omitempty"`
	RunUS   int64       `json:"run_us,omitempty"`
}

// Failure kinds a worker can report. Every kind is terminal (the
// supervisor does not retry it): these failures are deterministic
// properties of the (trace, config) pair, so a retry would fail
// identically and waste a worker slot.
const (
	kindViolation = "violation" // check.Violation: simulated hardware broke an invariant
	kindPanic     = "panic"     // contained *sim.RunPanicError
	kindError     = "error"     // any other simulation error (bad trace, bad config)
)

// lineWriter serializes JSON lines onto one stream: the heartbeat
// goroutine and the simulation goroutine must never interleave bytes.
type lineWriter struct {
	mu  sync.Mutex
	enc *json.Encoder
}

func (w *lineWriter) send(ln workerLine) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.enc.Encode(ln) //nolint:errcheck // a broken pipe means the supervisor is gone; the next write or exit ends us
}

// WorkerMain is the worker-process entry point. It serves jobs from
// stdin until EOF and returns the process exit code; protocol-level
// failures (undecodable envelope) are the only nonzero exits.
//
// After each terminal line the worker collects the finished job's
// garbage and returns the freed pages to the OS (debug.FreeOSMemory).
// That takes about 1 ms, so it runs beside the wait for the next
// envelope rather than in front of it, and at most once at a time.
// The simulation arena itself is held for the worker's life
// (internal/sim), so each job starts from the same live state and a
// reused worker's resident peak stays close to a one-job worker's,
// with no memory limit to slow a run whose live state is large.
func WorkerMain(ctx context.Context, stdin io.Reader, stdout, stderr io.Writer) int {
	dec := json.NewDecoder(stdin)
	dec.DisallowUnknownFields()
	out := &lineWriter{enc: json.NewEncoder(stdout)}
	suite := workload.Suite()
	var cleaning atomic.Bool // a FreeOSMemory is in progress
	for {
		var job jobEnvelope
		if err := dec.Decode(&job); err != nil {
			if errors.Is(err, io.EOF) {
				return 0
			}
			fmt.Fprintf(stderr, "bvsimd worker: bad job envelope: %v\n", err)
			return 1
		}
		if !serveJob(ctx, job, suite, out) {
			return 0
		}
		if cleaning.CompareAndSwap(false, true) {
			go func() {
				defer cleaning.Store(false)
				debug.FreeOSMemory()
			}()
		}
	}
}

// serveJob runs one job under the heartbeat protocol and reports
// whether the worker may take another. It returns false only for an
// injected stall, which ends when ctx does.
func serveJob(ctx context.Context, job jobEnvelope, suite []workload.Profile, out *lineWriter) bool {
	t0 := time.Now()
	// First heartbeat before any work: the supervisor uses it both to
	// arm chaos kills deterministically and to distinguish "worker
	// never started" from "worker died mid-run".
	out.send(workerLine{HB: true})

	if job.Stall {
		// Injected livelock: from here on the worker is silent. The
		// supervisor's watchdog must SIGKILL us; waiting on ctx keeps
		// the goroutine parked instead of spinning.
		<-ctx.Done()
		return false
	}

	hb := time.Duration(job.HeartbeatMS) * time.Millisecond
	if hb <= 0 {
		hb = 500 * time.Millisecond
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(hb)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				out.send(workerLine{HB: true})
			case <-stop:
				return
			}
		}
	}()

	var (
		res sim.Result
		err error
	)
	p, ok := workload.ByName(suite, job.Trace)
	t1 := time.Now()
	if ok {
		res, err = sim.RunSingleCtx(ctx, p, job.Config)
	} else {
		err = fmt.Errorf("unknown trace %q", job.Trace)
	}
	t2 := time.Now()
	close(stop)
	wg.Wait() // no heartbeat may trail the terminal line
	ln := workerLine{SetupUS: t1.Sub(t0).Microseconds(), RunUS: t2.Sub(t1).Microseconds()}
	if err != nil {
		ln.Error, ln.Kind = err.Error(), classifyError(err)
	} else {
		ln.Result = &res
	}
	out.send(ln)
	return true
}

func classifyError(err error) string {
	var v *check.Violation
	if errors.As(err, &v) {
		return kindViolation
	}
	var p *sim.RunPanicError
	if errors.As(err, &p) {
		return kindPanic
	}
	return kindError
}
