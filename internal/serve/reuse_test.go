package serve

// Worker reuse: long-lived worker processes serve many jobs, are
// replaced only after a fault, and never outlive the service. Like the
// chaos tests, the workers are the test binary itself (see TestMain).

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strings"
	"syscall"
	"testing"

	"basevictim/internal/sim"
	"basevictim/internal/workload"
)

// reuseServer starts a server over real worker processes with tight
// liveness timings.
func reuseServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	fastPool(&cfg)
	return startServer(t, cfg)
}

func runOK(t *testing.T, s *Server, trace string, ins int) []byte {
	t.Helper()
	resp, body := postJSON(t, "http://"+s.Addr()+"/v1/run",
		map[string]any{"trace": trace, "instructions": ins})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s/%d: status %d (%s)", trace, ins, resp.StatusCode, body)
	}
	return body
}

// idleWorkers returns the pool's idle workers.
func idleWorkers(s *Server) []*proc {
	s.pool.mu.Lock()
	defer s.pool.mu.Unlock()
	return append([]*proc(nil), s.pool.idle...)
}

// idlePIDs lists the process IDs of the pool's idle workers.
func idlePIDs(s *Server) []int {
	var pids []int
	for _, w := range idleWorkers(s) {
		pids = append(pids, w.cmd.Process.Pid)
	}
	return pids
}

// TestWorkerReuseSpawnsAtMostWorkers: sequential fault-free misses are
// served by reused workers, so the service starts at most Workers
// processes however many runs it executes, and every answer is still
// byte-identical to an in-process run.
func TestWorkerReuseSpawnsAtMostWorkers(t *testing.T) {
	const workers = 2
	s := reuseServer(t, Config{Workers: workers})
	if n := counterValue(t, s, "serve.worker_spawns"); n != 0 {
		t.Fatalf("serve.worker_spawns = %d before any request, want 0 (workers start lazily)", n)
	}
	traces := []string{"mcf.p1", "lbm.p2", "milc.p1", "gcc.p1"}
	for i := 0; i < 20; i++ {
		tr, ins := traces[i%len(traces)], 5_000+i
		got, _ := json.Marshal(decodeRun(t, runOK(t, s, tr, ins)))
		want, _ := json.Marshal(expectResult(t, tr, uint64(ins)))
		if !bytes.Equal(got, want) {
			t.Fatalf("run %d (%s) on a reused worker diverges:\ngot  %s\nwant %s", i, tr, got, want)
		}
	}
	if n := counterValue(t, s, "serve.runs_executed"); n != 20 {
		t.Fatalf("serve.runs_executed = %d, want 20 distinct misses", n)
	}
	if n := counterValue(t, s, "serve.worker_spawns"); n < 1 || n > workers {
		t.Fatalf("serve.worker_spawns = %d after 20 sequential misses, want 1..%d", n, workers)
	}
	if n := counterValue(t, s, "serve.worker_restarts"); n != 0 {
		t.Fatalf("serve.worker_restarts = %d without faults, want 0", n)
	}
}

// TestDrainReapsWorkers: after Drain no worker process is left, idle
// or otherwise.
func TestDrainReapsWorkers(t *testing.T) {
	s := reuseServer(t, Config{Workers: 2})
	runOK(t, s, "mcf.p1", 5_000)
	pids := idlePIDs(s)
	if len(pids) != 1 {
		t.Fatalf("%d idle workers after one run, want 1", len(pids))
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if left := idlePIDs(s); len(left) != 0 {
		t.Fatalf("pool still holds %d idle workers after Drain", len(left))
	}
	for _, pid := range pids {
		// Drain waited for the worker, so its PID is gone: signal 0
		// probes for existence without delivering anything.
		if err := syscall.Kill(pid, 0); !errors.Is(err, syscall.ESRCH) {
			t.Fatalf("worker %d still exists after Drain (kill -0: %v)", pid, err)
		}
	}
}

// TestIdleWorkerDeathCostsNoAttempt: a worker that dies while idle is
// noticed when next picked, reaped and replaced; the job it would have
// run is not charged an attempt.
func TestIdleWorkerDeathCostsNoAttempt(t *testing.T) {
	s := reuseServer(t, Config{Workers: 1})
	runOK(t, s, "mcf.p1", 5_000)
	pids := idlePIDs(s)
	if len(pids) != 1 {
		t.Fatalf("%d idle workers, want 1", len(pids))
	}
	if err := syscall.Kill(pids[0], syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	// Wait until the death is visible on the worker's stdout (its
	// reader closes lines at EOF), so the next dispatch must notice it
	// rather than race it.
	if ln := recvWithin(t, idleWorkers(s)[0].lines, "the killed idle worker's stdout to end"); ln != (workerLine{}) {
		t.Fatalf("an idle worker emitted %+v", ln)
	}
	got, _ := json.Marshal(decodeRun(t, runOK(t, s, "lbm.p2", 5_000)))
	want, _ := json.Marshal(expectResult(t, "lbm.p2", 5_000))
	if !bytes.Equal(got, want) {
		t.Fatalf("run after an idle death diverges:\ngot  %s\nwant %s", got, want)
	}
	for name, want := range map[string]uint64{
		"serve.worker_spawns":   2,
		"serve.worker_restarts": 0,
		"serve.worker_retries":  0,
	} {
		if n := counterValue(t, s, name); n != want {
			t.Errorf("%s = %d, want %d", name, n, want)
		}
	}
}

// TestCancelledRunReplacesWorker: a run cut off by its deadline kills
// its worker, which is never reused; the next job gets a fresh one.
func TestCancelledRunReplacesWorker(t *testing.T) {
	s := reuseServer(t, Config{Workers: 1})
	resp, body := postJSON(t, "http://"+s.Addr()+"/v1/run",
		map[string]any{"trace": "mcf.p1", "instructions": 200_000_000, "timeout_ms": 500})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d (%s), want 504", resp.StatusCode, body)
	}
	waitInflightZero(t, s)
	runOK(t, s, "mcf.p1", 5_000)
	runOK(t, s, "lbm.p2", 5_000)
	if n := counterValue(t, s, "serve.worker_spawns"); n != 2 {
		t.Fatalf("serve.worker_spawns = %d, want 2 (the cancelled worker replaced once, then reused)", n)
	}
}

// TestWorkerMainServesManyJobs: one worker process reads several
// envelopes from one stdin and answers each with exactly one terminal
// line equal to an in-process sim.RunSingleCtx, then exits 0 at EOF.
func TestWorkerMainServesManyJobs(t *testing.T) {
	jobs := []struct {
		trace string
		org   sim.OrgKind
		ins   uint64
	}{
		{"mcf.p1", sim.OrgBaseVictim, 20_000},
		{"lbm.p2", sim.OrgUncompressed, 15_000},
		{"nosuch.trace", sim.OrgBaseVictim, 1_000},
		{"mcf.p1", sim.OrgBaseVictim, 20_000},
		{"milc.p1", sim.OrgBaseVictim, 10_000},
	}
	var in bytes.Buffer
	enc := json.NewEncoder(&in)
	for _, j := range jobs {
		cfg := sim.Default()
		cfg.Org, cfg.Instructions = j.org, j.ins
		if err := enc.Encode(jobEnvelope{Trace: j.trace, Config: cfg, HeartbeatMS: 1000}); err != nil {
			t.Fatal(err)
		}
	}
	var out, errOut bytes.Buffer
	if code := WorkerMain(context.Background(), &in, &out, &errOut); code != 0 {
		t.Fatalf("worker exit %d at EOF, want 0 (stderr: %s)", code, errOut.String())
	}
	var terminal []workerLine
	dec := json.NewDecoder(&out)
	for {
		var ln workerLine
		if err := dec.Decode(&ln); err == io.EOF {
			break
		} else if err != nil {
			t.Fatalf("bad worker line: %v", err)
		}
		if ln.Result != nil || ln.Error != "" {
			terminal = append(terminal, ln)
		}
	}
	if len(terminal) != len(jobs) {
		t.Fatalf("%d terminal lines for %d jobs", len(terminal), len(jobs))
	}
	for i, j := range jobs {
		ln := terminal[i]
		p, ok := workload.ByName(workload.Suite(), j.trace)
		if !ok {
			if ln.Kind != kindError || !strings.Contains(ln.Error, j.trace) {
				t.Errorf("job %d: unknown trace answered %+v, want a structured error", i, ln)
			}
			continue
		}
		cfg := sim.Default()
		cfg.Org, cfg.Instructions = j.org, j.ins
		want, err := sim.RunSingleCtx(context.Background(), p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if ln.Result == nil {
			t.Fatalf("job %d (%s): %s %s, want a result", i, j.trace, ln.Kind, ln.Error)
		}
		gb, _ := json.Marshal(ln.Result)
		wb, _ := json.Marshal(want)
		if !bytes.Equal(gb, wb) {
			t.Fatalf("job %d (%s) diverges from sim.RunSingleCtx:\ngot  %s\nwant %s", i, j.trace, gb, wb)
		}
		if ln.RunUS <= 0 {
			t.Errorf("job %d: terminal line reports run_us=%d, want the simulation time", i, ln.RunUS)
		}
	}
	if errOut.Len() != 0 {
		t.Errorf("worker wrote to stderr: %s", errOut.String())
	}
}

// TestWorkerMainEmptyStdin: a worker whose stdin ends before any job
// exits 0 without output.
func TestWorkerMainEmptyStdin(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := WorkerMain(context.Background(), strings.NewReader(""), &out, &errOut); code != 0 {
		t.Fatalf("exit %d on empty stdin, want 0", code)
	}
	if out.Len() != 0 {
		t.Fatalf("output on empty stdin: %s", out.String())
	}
}
