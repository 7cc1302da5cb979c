package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"basevictim/internal/cliexit"
	"basevictim/internal/figures"
	"basevictim/internal/sim"
	"basevictim/internal/workload"
)

// TestMain doubles as the worker binary: the pool re-execs the test
// executable with BVSIMD_WORKER set, exactly as bvsimd re-execs
// itself, so the worker-process chaos tests exercise the real
// supervisor/worker protocol end to end.
func TestMain(m *testing.M) {
	if os.Getenv(workerEnvVar) != "" {
		os.Exit(WorkerMain(context.Background(), os.Stdin, os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// fastPoolConfig tightens the liveness protocol so chaos tests resolve
// in tens of milliseconds instead of the serving defaults.
func fastPool(cfg *Config) {
	cfg.Heartbeat = 20 * time.Millisecond
	cfg.HungAfter = 300 * time.Millisecond
	cfg.BackoffBase = 5 * time.Millisecond
	cfg.BackoffCap = 20 * time.Millisecond
}

func startServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Listen(context.Background(), "127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

func getJSON(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

// decodeRun extracts the sim.Result from a 200 /v1/run response.
func decodeRun(t *testing.T, body []byte) sim.Result {
	t.Helper()
	var rr runResponse
	if err := json.Unmarshal(body, &rr); err != nil {
		t.Fatalf("bad run response %s: %v", body, err)
	}
	return rr.Result
}

// expectResult computes the ground truth for (trace, budget) with a
// plain in-process session — what every service path must reproduce
// exactly.
func expectResult(t *testing.T, trace string, ins uint64) sim.Result {
	t.Helper()
	cfg := sim.Default()
	cfg.Instructions = ins
	s := figures.NewSession(0)
	r, err := s.Run(context.Background(), trace, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// recvLimit bounds every wait on a test channel: a hang fails fast,
// naming what never arrived, instead of running into the package
// timeout.
const recvLimit = 30 * time.Second

// recvWithin receives one value from ch, failing the test with what
// it was waiting for if none arrives within recvLimit.
func recvWithin[T any](t *testing.T, ch <-chan T, what string) T {
	t.Helper()
	select {
	case v := <-ch:
		return v
	case <-time.After(recvLimit):
		t.Fatalf("waited %v for %s", recvLimit, what)
	}
	var zero T
	return zero
}

func counterValue(t *testing.T, s *Server, name string) uint64 {
	t.Helper()
	return s.m.snapshot().Counters[name]
}

// --- service API over real worker processes ---------------------------

// TestRunWorkerProcessMatchesInProcess: a run dispatched to a worker
// process returns exactly what an in-process simulation returns — the
// exec/JSON hop may not perturb a single bit of the result.
func TestRunWorkerProcessMatchesInProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	cfg := Config{Workers: 2}
	fastPool(&cfg)
	s := startServer(t, cfg)
	resp, body := postJSON(t, "http://"+s.Addr()+"/v1/run",
		map[string]any{"trace": "mcf.p1", "instructions": 50_000})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	got := decodeRun(t, body)
	want := expectResult(t, "mcf.p1", 50_000)
	gb, _ := json.Marshal(got)
	wb, _ := json.Marshal(want)
	if !bytes.Equal(gb, wb) {
		t.Fatalf("worker-process result diverges from in-process:\ngot  %s\nwant %s", gb, wb)
	}
	if n := counterValue(t, s, "serve.runs_executed"); n != 1 {
		t.Fatalf("runs_executed = %d, want 1", n)
	}
	// The same request again is a cache hit: no second run.
	resp2, body2 := postJSON(t, "http://"+s.Addr()+"/v1/run",
		map[string]any{"trace": "mcf.p1", "instructions": 50_000})
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("repeat status %d: %s", resp2.StatusCode, body2)
	}
	if n := counterValue(t, s, "serve.runs_executed"); n != 1 {
		t.Fatalf("runs_executed after repeat = %d, want 1 (cache hit)", n)
	}
}

func TestBadRequests(t *testing.T) {
	s := startServer(t, Config{InProcess: true})
	base := "http://" + s.Addr()
	cases := []struct {
		name string
		body any
		want string // substring of the error
	}{
		{"unknown trace", map[string]any{"trace": "nope", "instructions": 1000}, "unknown trace"},
		{"zero budget", map[string]any{"trace": "mcf.p1", "instructions": 0, "config": map[string]any{"Instructions": 0}}, "budget"},
		{"budget over cap", map[string]any{"trace": "mcf.p1", "instructions": uint64(1) << 40}, "exceeds the server cap"},
		{"unknown org", map[string]any{"trace": "mcf.p1", "instructions": 1000, "config": map[string]any{"Org": "warp"}}, "unknown org"},
		{"unknown config field", map[string]any{"trace": "mcf.p1", "instructions": 1000, "config": map[string]any{"Flux": 1}}, "bad config"},
	}
	for _, c := range cases {
		resp, body := postJSON(t, base+"/v1/run", c.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", c.name, resp.StatusCode, body)
			continue
		}
		var eb errorBody
		if err := json.Unmarshal(body, &eb); err != nil || eb.Kind != "bad_request" {
			t.Errorf("%s: body %s, want kind bad_request", c.name, body)
		}
		if !bytes.Contains(body, []byte(c.want)) {
			t.Errorf("%s: error %s does not mention %q", c.name, body, c.want)
		}
	}
	// Trailing garbage after the JSON body is rejected too.
	resp, err := http.Post(base+"/v1/run", "application/json",
		bytes.NewReader([]byte(`{"trace":"mcf.p1","instructions":1000} trailing`)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("trailing garbage: status %d, want 400", resp.StatusCode)
	}
}

func TestTracesEndpoint(t *testing.T) {
	s := startServer(t, Config{InProcess: true})
	resp, body := getJSON(t, "http://"+s.Addr()+"/v1/traces")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var out []struct {
		Name      string `json:"name"`
		Category  string `json:"category"`
		Sensitive bool   `json:"sensitive"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if len(out) != len(workload.Suite()) {
		t.Fatalf("%d traces listed, want %d", len(out), len(workload.Suite()))
	}
}

// --- admission control ------------------------------------------------

// gatedRunner blocks every run until released, so tests control
// exactly how many jobs occupy workers and queue slots.
type gatedRunner struct {
	started chan string   // receives the trace of each run that begins
	release chan struct{} // closed to let runs finish
}

func newGatedRunner() *gatedRunner {
	return &gatedRunner{
		started: make(chan string, 64),
		release: make(chan struct{}),
	}
}

func (g *gatedRunner) run(ctx context.Context, p workload.Profile, cfg sim.Config) (sim.Result, error) {
	g.started <- p.Name
	select {
	case <-g.release:
	case <-ctx.Done():
		return sim.Result{}, ctx.Err()
	}
	return sim.Result{Trace: p.Name, Org: cfg.Org, IPC: 1.0, Instructions: cfg.Instructions}, nil
}

func waitStarted(t *testing.T, g *gatedRunner, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		select {
		case <-g.started:
		case <-time.After(5 * time.Second):
			t.Fatalf("only %d/%d runs started", i, n)
		}
	}
}

// waitInflightZero polls until no job is simulating.
func waitInflightZero(t *testing.T, s *Server) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for s.m.snapshot().Gauges["serve.inflight"] != 0 {
		if time.Now().After(deadline) {
			t.Fatal("inflight never returned to zero")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestOverloadShedsWithRetryAfter drives the service at 4x capacity:
// workers + queue hold 1+2 jobs; everything beyond that must shed
// immediately with 429, Retry-After, and a bounded queue — and the
// accepted requests must all complete once capacity frees up.
func TestOverloadShedsWithRetryAfter(t *testing.T) {
	g := newGatedRunner()
	s := startServer(t, Config{Workers: 1, QueueDepth: 2, Runner: g.run})
	base := "http://" + s.Addr()

	const capacity = 3 // 1 in flight + 2 queued
	const offered = 12 // 4x capacity
	type outcome struct {
		status     int
		retryAfter string
		body       []byte
	}
	results := make(chan outcome, offered)
	var wg sync.WaitGroup
	submit := func(i int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, body := postJSON(t, base+"/v1/run",
				map[string]any{"trace": "mcf.p1", "instructions": 1000 + i})
			results <- outcome{resp.StatusCode, resp.Header.Get("Retry-After"), body}
		}()
	}
	// Occupy the worker first, THEN fill the queue. Submitting all
	// three concurrently would let the queue (bound 2) fill before the
	// dispatcher's first pop, shedding one capacity-filling request.
	submit(0)
	waitStarted(t, g, 1)
	for i := 1; i < capacity; i++ {
		submit(i)
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.q.depth() < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("queue depth %d never reached 2", s.q.depth())
		}
		time.Sleep(time.Millisecond)
	}
	// Now the service is full: every further request sheds synchronously.
	sheds := 0
	for i := capacity; i < offered; i++ {
		resp, body := postJSON(t, base+"/v1/run",
			map[string]any{"trace": "mcf.p1", "instructions": 1000 + i})
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("over-capacity request %d: status %d (%s), want 429", i, resp.StatusCode, body)
		}
		ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
		if err != nil || ra < 1 {
			t.Fatalf("Retry-After %q, want a positive integer", resp.Header.Get("Retry-After"))
		}
		var eb errorBody
		if json.Unmarshal(body, &eb) != nil || eb.Kind != "overloaded" {
			t.Fatalf("shed body %s, want kind overloaded", body)
		}
		sheds++
	}
	if depth := s.q.depth(); depth > 2 {
		t.Fatalf("queue depth %d exceeds its bound 2", depth)
	}
	close(g.release) // capacity frees; accepted requests must finish
	wg.Wait()
	close(results)
	for out := range results {
		if out.status != http.StatusOK {
			t.Fatalf("accepted request ended %d: %s", out.status, out.body)
		}
	}
	if n := counterValue(t, s, "serve.shed_queue_full"); n != uint64(sheds) {
		t.Fatalf("shed_queue_full = %d, want %d", n, sheds)
	}
	if n := s.m.snapshot().Gauges["serve.queue_depth_max"]; n > 2 {
		t.Fatalf("queue_depth_max = %d, want <= 2", n)
	}
}

// TestQuotaShedsPerClient: one client exhausting its token bucket gets
// 429 kind=quota with a Retry-After, while a different client is
// still admitted.
func TestQuotaShedsPerClient(t *testing.T) {
	s := startServer(t, Config{
		Workers: 2, QuotaRate: 0.001, QuotaBurst: 2,
		Runner: func(ctx context.Context, p workload.Profile, cfg sim.Config) (sim.Result, error) {
			return sim.Result{Trace: p.Name, IPC: 1}, nil
		},
	})
	base := "http://" + s.Addr()
	do := func(client string, ins int) (*http.Response, []byte) {
		b, _ := json.Marshal(map[string]any{"trace": "mcf.p1", "instructions": ins})
		req, _ := http.NewRequest("POST", base+"/v1/run", bytes.NewReader(b))
		req.Header.Set("X-Client-ID", client)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp, body
	}
	for i := 0; i < 2; i++ {
		if resp, body := do("alice", 1000+i); resp.StatusCode != http.StatusOK {
			t.Fatalf("within-burst request %d: status %d (%s)", i, resp.StatusCode, body)
		}
	}
	resp, body := do("alice", 5000)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota status %d (%s), want 429", resp.StatusCode, body)
	}
	var eb errorBody
	if json.Unmarshal(body, &eb) != nil || eb.Kind != "quota" {
		t.Fatalf("over-quota body %s, want kind quota", body)
	}
	if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || ra < 1 {
		t.Fatalf("Retry-After %q, want a positive integer", resp.Header.Get("Retry-After"))
	}
	if resp, body := do("bob", 9000); resp.StatusCode != http.StatusOK {
		t.Fatalf("other client status %d (%s), want 200", resp.StatusCode, body)
	}
	if n := counterValue(t, s, "serve.shed_quota"); n != 1 {
		t.Fatalf("shed_quota = %d, want 1", n)
	}
}

// TestClientDisconnectCancelsRun: a client that hangs up mid-run
// cancels the simulation (freeing the worker) and must NOT poison the
// key — the next identical request simulates fresh and succeeds.
func TestClientDisconnectCancelsRun(t *testing.T) {
	g := newGatedRunner()
	s := startServer(t, Config{Workers: 1, Runner: g.run})
	base := "http://" + s.Addr()

	reqCtx, cancelReq := context.WithCancel(context.Background())
	b, _ := json.Marshal(map[string]any{"trace": "mcf.p1", "instructions": 4242})
	req, _ := http.NewRequestWithContext(reqCtx, "POST", base+"/v1/run", bytes.NewReader(b))
	errc := make(chan error, 1)
	go func() {
		_, err := http.DefaultClient.Do(req)
		errc <- err
	}()
	waitStarted(t, g, 1) // the run is in flight
	cancelReq()          // client hangs up
	if err := recvWithin(t, errc, "the cancelled request to return"); err == nil {
		t.Fatal("cancelled request reported success")
	}
	// Wait for the dispatcher to finish the cancelled job (which also
	// uncaches the key), then prove the key is clean: the same request
	// runs to completion.
	waitInflightZero(t, s)
	// The hang-up is counted. The handler increments after the run
	// unwinds, concurrently with the inflight gauge, so poll briefly.
	discDeadline := time.Now().Add(5 * time.Second)
	for counterValue(t, s, "serve.client_disconnects") == 0 && time.Now().Before(discDeadline) {
		time.Sleep(time.Millisecond)
	}
	if n := counterValue(t, s, "serve.client_disconnects"); n != 1 {
		t.Fatalf("serve.client_disconnects = %d after one hang-up, want 1", n)
	}
	close(g.release)
	resp, body := postJSON(t, base+"/v1/run", map[string]any{"trace": "mcf.p1", "instructions": 4242})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("request after disconnect: status %d (%s) — the key was poisoned", resp.StatusCode, body)
	}
}

// TestRequestDeadline504: a run exceeding the request deadline comes
// back as a structured 504, and the connection is not wedged.
func TestRequestDeadline504(t *testing.T) {
	g := newGatedRunner() // never released: the run outlives any deadline
	s := startServer(t, Config{Workers: 1, Runner: g.run})
	resp, body := postJSON(t, "http://"+s.Addr()+"/v1/run",
		map[string]any{"trace": "mcf.p1", "instructions": 1000, "timeout_ms": 50})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d (%s), want 504", resp.StatusCode, body)
	}
	var eb errorBody
	if json.Unmarshal(body, &eb) != nil || eb.Kind != "deadline" {
		t.Fatalf("body %s, want kind deadline", body)
	}
}

// TestSlowClientHeaderTimeout: a client dribbling its request headers
// is cut off by ReadHeaderTimeout and cannot wedge the service.
func TestSlowClientHeaderTimeout(t *testing.T) {
	s := startServer(t, Config{InProcess: true, ReadHeaderTimeout: 100 * time.Millisecond})
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("POST /v1/run HTTP/1.1\r\nHost: x\r\nX-Slow")); err != nil {
		t.Fatal(err)
	}
	// The server must terminate the connection: either a 408 (net/http
	// answers header-read timeouts explicitly) or a plain close. What it
	// must NOT do is hold the connection open waiting forever.
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	raw, err := io.ReadAll(conn)
	if err != nil {
		t.Fatalf("connection not terminated after ReadHeaderTimeout: %v", err)
	}
	if len(raw) > 0 && !strings.HasPrefix(string(raw), "HTTP/1.1 408") &&
		!strings.HasPrefix(string(raw), "HTTP/1.1 400") {
		t.Fatalf("unexpected response to a half-sent request: %q", raw)
	}
	// The service is still healthy for well-behaved clients.
	resp, _ := getJSON(t, "http://"+s.Addr()+"/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after slow client: %d", resp.StatusCode)
	}
}

// TestSweepAtomicAdmission: a sweep that cannot fit entirely is
// refused entirely — no partial claim on queue capacity.
func TestSweepAtomicAdmission(t *testing.T) {
	g := newGatedRunner()
	s := startServer(t, Config{Workers: 1, QueueDepth: 2, Runner: g.run})
	base := "http://" + s.Addr()
	// Occupy the worker so queue arithmetic is exact.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		postJSON(t, base+"/v1/run", map[string]any{"trace": "mcf.p1", "instructions": 777})
	}()
	waitStarted(t, g, 1)
	resp, body := postJSON(t, base+"/v1/sweep",
		map[string]any{"traces": []string{"mcf.p1", "lbm.p2", "milc.p1"}, "instructions": 1000})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("oversized sweep: status %d (%s), want 429", resp.StatusCode, body)
	}
	if depth := s.q.depth(); depth != 0 {
		t.Fatalf("refused sweep left %d jobs queued", depth)
	}
	// A sweep that fits is admitted whole.
	done := make(chan outcomePair, 1)
	go func() {
		resp, body := postJSON(t, base+"/v1/sweep",
			map[string]any{"traces": []string{"lbm.p2", "milc.p1"}, "instructions": 1000})
		done <- outcomePair{resp, body}
	}()
	close(g.release)
	wg.Wait()
	out := recvWithin(t, done, "the fitting sweep's answer")
	if out.resp.StatusCode != http.StatusOK {
		t.Fatalf("fitting sweep: status %d (%s)", out.resp.StatusCode, out.body)
	}
	var sr sweepResponse
	if err := json.Unmarshal(out.body, &sr); err != nil || len(sr.Rows) != 2 || sr.Failed != 0 {
		t.Fatalf("sweep response %s", out.body)
	}
	for _, row := range sr.Rows {
		if row.Result == nil {
			t.Fatalf("row %s has no result", row.Trace)
		}
	}
}

type outcomePair struct {
	resp *http.Response
	body []byte
}

// TestDrainSheds503: while a drain waits on in-flight work, new work
// is refused with 503 + Retry-After, healthz flips to draining, the
// accepted run still completes, and the drain then finishes clean.
func TestDrainSheds503(t *testing.T) {
	g := newGatedRunner()
	s := startServer(t, Config{Workers: 1, Runner: g.run})
	base := "http://" + s.Addr()
	accepted := make(chan outcomePair, 1)
	go func() {
		resp, body := postJSON(t, base+"/v1/run", map[string]any{"trace": "mcf.p1", "instructions": 1000})
		accepted <- outcomePair{resp, body}
	}()
	waitStarted(t, g, 1)
	drainDone := make(chan error, 1)
	go func() { drainDone <- s.Drain(context.Background()) }()
	deadline := time.Now().Add(5 * time.Second)
	for !s.draining.Load() {
		if time.Now().After(deadline) {
			t.Fatal("drain never began")
		}
		time.Sleep(time.Millisecond)
	}
	resp, body := postJSON(t, base+"/v1/run", map[string]any{"trace": "lbm.p2", "instructions": 1000})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d (%s), want 503", resp.StatusCode, body)
	}
	var eb errorBody
	if json.Unmarshal(body, &eb) != nil || eb.Kind != "draining" {
		t.Fatalf("body %s, want kind draining", body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("draining shed carries no Retry-After")
	}
	resp, _ = getJSON(t, base+"/healthz")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining: %d, want 503", resp.StatusCode)
	}
	close(g.release)
	out := recvWithin(t, accepted, "the accepted run's answer")
	if out.resp.StatusCode != http.StatusOK {
		t.Fatalf("accepted run ended %d during drain: %s", out.resp.StatusCode, out.body)
	}
	if err := recvWithin(t, drainDone, "the drain to finish"); err != nil {
		t.Fatalf("drain with finished work reported %v", err)
	}
}

// TestListenBindFailureExitCode: the error for an unbindable address
// classifies as cliexit.Bind (exit code 5) — the service satellite of
// the exit-code contract.
func TestListenBindFailureExitCode(t *testing.T) {
	s1 := startServer(t, Config{InProcess: true})
	s2, err := New(Config{InProcess: true})
	if err != nil {
		t.Fatal(err)
	}
	err = s2.Listen(context.Background(), s1.Addr())
	if err == nil {
		t.Fatal("second Listen on a bound address succeeded")
	}
	if got := cliexit.Code(err); got != cliexit.Bind {
		t.Fatalf("cliexit.Code = %d, want %d (err: %v)", got, cliexit.Bind, err)
	}
}

// --- unit tests for the service internals -----------------------------

func TestParseChaos(t *testing.T) {
	spec, err := parseChaos("kill@1,stall@3,kill%5")
	if err != nil {
		t.Fatal(err)
	}
	want := map[int]chaosAction{1: chaosKill, 2: chaosNone, 3: chaosStall, 5: chaosKill, 10: chaosKill, 11: chaosNone}
	for launch, act := range want {
		if got := spec.action(launch); got != act {
			t.Errorf("action(%d) = %d, want %d", launch, got, act)
		}
	}
	if (*chaosSpec)(nil).action(1) != chaosNone {
		t.Error("nil spec must inject nothing")
	}
	for _, bad := range []string{"boom@1", "kill@0", "kill@x", "kill", "stall%0"} {
		if _, err := parseChaos(bad); err == nil {
			t.Errorf("parseChaos(%q) accepted", bad)
		}
	}
}

func TestQuotaTable(t *testing.T) {
	q := newQuotaTable(10, 3) // 10 tokens/s, burst 3
	now := time.Unix(1000, 0)
	q.now = func() time.Time { return now }
	for i := 0; i < 3; i++ {
		if ok, _ := q.take("c", 1); !ok {
			t.Fatalf("burst request %d refused", i)
		}
	}
	ok, retry := q.take("c", 1)
	if ok {
		t.Fatal("4th immediate request admitted past burst")
	}
	if retry <= 0 || retry > 200*time.Millisecond {
		t.Fatalf("retry = %v, want ~100ms (1 token at 10/s)", retry)
	}
	if ok, _ := q.take("other", 1); !ok {
		t.Fatal("a different client must have its own bucket")
	}
	now = now.Add(time.Second) // refill past burst
	if ok, _ := q.take("c", 3); !ok {
		t.Fatal("full-burst take refused after refill")
	}
	// A take larger than burst can never succeed but must report a
	// finite wait.
	if ok, retry := q.take("c", 10); ok || retry <= 0 {
		t.Fatalf("oversized take: ok=%v retry=%v", ok, retry)
	}
	if q2 := newQuotaTable(0, 5); q2 != nil {
		t.Fatal("rate 0 must disable quotas")
	}
	if ok, _ := (*quotaTable)(nil).take("x", 1); !ok {
		t.Fatal("nil table must admit")
	}
}

func TestQuotaTableEviction(t *testing.T) {
	q := newQuotaTable(1, 2)
	now := time.Unix(1000, 0)
	q.now = func() time.Time { return now }
	q.maxClients = 8
	for i := 0; i < 64; i++ {
		now = now.Add(time.Millisecond)
		if ok, _ := q.take(fmt.Sprintf("c%d", i), 1); !ok {
			t.Fatalf("client %d refused", i)
		}
	}
	if n := len(q.buckets); n > 8 {
		t.Fatalf("bucket table grew to %d despite maxClients=8", n)
	}
}

func TestQueueAllOrNothing(t *testing.T) {
	q := newQueue(3)
	mk := func() *job { return &job{ctx: context.Background(), done: make(chan jobResult, 1)} }
	if !q.tryPush(mk(), mk()) {
		t.Fatal("push of 2 into empty capacity-3 queue refused")
	}
	if q.tryPush(mk(), mk()) {
		t.Fatal("push of 2 into queue with 1 slot accepted")
	}
	if q.depth() != 2 {
		t.Fatalf("failed push changed depth to %d", q.depth())
	}
	if !q.tryPush(mk()) {
		t.Fatal("push of 1 into the last slot refused")
	}
	for i := 0; i < 3; i++ {
		if _, ok := q.pop(); !ok {
			t.Fatalf("pop %d failed", i)
		}
	}
	q.close()
	if _, ok := q.pop(); ok {
		t.Fatal("pop succeeded on a closed empty queue")
	}
	if q.tryPush(mk()) {
		t.Fatal("push succeeded after close")
	}
}

func TestQueueDrainsAfterClose(t *testing.T) {
	q := newQueue(4)
	a := &job{trace: "a"}
	b := &job{trace: "b"}
	q.tryPush(a, b)
	q.close()
	if j, ok := q.pop(); !ok || j.trace != "a" {
		t.Fatalf("first pop after close = %v, %v", j, ok)
	}
	if j, ok := q.pop(); !ok || j.trace != "b" {
		t.Fatalf("second pop after close = %v, %v", j, ok)
	}
	if _, ok := q.pop(); ok {
		t.Fatal("closed queue kept producing")
	}
}

// TestBackoffDeterministicAndCapped: same seed, same schedule; delays
// respect the cap with jitter in [0.5, 1.5).
func TestBackoffDeterministicAndCapped(t *testing.T) {
	mk := func() *pool {
		return newPool(poolConfig{
			argv:        []string{"unused"},
			backoffBase: 10 * time.Millisecond,
			backoffCap:  80 * time.Millisecond,
			seed:        42,
		}, newMetrics())
	}
	p1, p2 := mk(), mk()
	for attempt := 2; attempt <= 8; attempt++ {
		d1, d2 := p1.backoff(attempt), p2.backoff(attempt)
		if d1 != d2 {
			t.Fatalf("attempt %d: %v vs %v — schedule not deterministic for one seed", attempt, d1, d2)
		}
		if d1 < 5*time.Millisecond || d1 >= 120*time.Millisecond {
			t.Fatalf("attempt %d: delay %v outside [base/2, cap*1.5)", attempt, d1)
		}
	}
}

func TestErrIsCancel(t *testing.T) {
	if !errIsCancel(fmt.Errorf("w: %w", context.Canceled)) || !errIsCancel(context.DeadlineExceeded) {
		t.Fatal("wrapped context errors not recognized")
	}
	if errIsCancel(errors.New("boom")) {
		t.Fatal("plain error misread as cancellation")
	}
}

func TestConfigPatchReachesSimulation(t *testing.T) {
	var got sim.Config
	var mu sync.Mutex
	s := startServer(t, Config{Runner: func(ctx context.Context, p workload.Profile, cfg sim.Config) (sim.Result, error) {
		mu.Lock()
		got = cfg
		mu.Unlock()
		return sim.Result{Trace: p.Name}, nil
	}})
	resp, body := postJSON(t, "http://"+s.Addr()+"/v1/run", map[string]any{
		"trace": "mcf.p1", "instructions": 2000,
		"config": map[string]any{"Org": "uncompressed", "Policy": "srrip", "Prefetch": false},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	mu.Lock()
	defer mu.Unlock()
	if got.Org != sim.OrgUncompressed || got.Policy != "srrip" || got.Prefetch || got.Instructions != 2000 {
		t.Fatalf("config patch did not reach the runner: %+v", got)
	}
	// Unpatched fields keep their defaults.
	if got.LLCWays != sim.Default().LLCWays || got.Compressor != sim.Default().Compressor {
		t.Fatalf("unpatched fields lost their defaults: %+v", got)
	}
}
