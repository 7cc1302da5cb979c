package serve

// The deterministic chaos harness: every fault class the service
// claims to survive, injected on purpose, with the client-visible
// outcome asserted. The invariant under test is the package's one
// hard promise — a fault ends in a retried success, a clean shed, or
// a structured error, and never in a silently wrong table — so each
// test that recovers also proves byte-identity against a plain
// in-process simulation.
//
// Worker processes here are the test binary itself (see TestMain), so
// kills and stalls land on real child processes over the real
// stdin/stdout protocol.

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"basevictim/internal/figures"
	"basevictim/internal/sim"
)

// chaosServer starts a server whose workers are real processes with
// the given chaos spec and tight liveness timings.
func chaosServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	fastPool(&cfg)
	return startServer(t, cfg)
}

// TestChaosKillRetries: the first worker is SIGKILLed right after its
// first heartbeat — indistinguishable from a mid-run segfault — and
// the run still answers 200, byte-identical to a clean simulation.
func TestChaosKillRetries(t *testing.T) {
	s := chaosServer(t, Config{Workers: 1, Chaos: "kill@1"})
	resp, body := postJSON(t, "http://"+s.Addr()+"/v1/run",
		map[string]any{"trace": "mcf.p1", "instructions": 30_000})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d (%s), want 200 after a retried kill", resp.StatusCode, body)
	}
	got, _ := json.Marshal(decodeRun(t, body))
	want, _ := json.Marshal(expectResult(t, "mcf.p1", 30_000))
	if !bytes.Equal(got, want) {
		t.Fatalf("result after a worker kill diverges:\ngot  %s\nwant %s", got, want)
	}
	for name, want := range map[string]uint64{
		"serve.worker_chaos_kills": 1,
		"serve.worker_restarts":    1,
		"serve.worker_retries":     1,
		"serve.worker_spawns":      2, // the killed worker is replaced, never reused
	} {
		if n := counterValue(t, s, name); n != want {
			t.Errorf("%s = %d, want %d", name, n, want)
		}
	}
	// The kill burned attempt 1, so the success histogram records one
	// run that needed exactly two launches.
	h := s.m.snapshot().Histograms["serve.run_attempts"]
	if h.Count != 1 || h.Sum != 2 {
		t.Errorf("serve.run_attempts count=%d sum=%d, want one observation of 2", h.Count, h.Sum)
	}
}

// TestChaosStallHungKill: the first worker wedges forever (heartbeats
// but no progress is a different fault — this one goes fully silent),
// the watchdog SIGKILLs it, and the retry answers correctly.
func TestChaosStallHungKill(t *testing.T) {
	s := chaosServer(t, Config{Workers: 1, Chaos: "stall@1"})
	resp, body := postJSON(t, "http://"+s.Addr()+"/v1/run",
		map[string]any{"trace": "mcf.p1", "instructions": 30_000})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d (%s), want 200 after a hung-worker kill", resp.StatusCode, body)
	}
	got, _ := json.Marshal(decodeRun(t, body))
	want, _ := json.Marshal(expectResult(t, "mcf.p1", 30_000))
	if !bytes.Equal(got, want) {
		t.Fatalf("result after a hung worker diverges:\ngot  %s\nwant %s", got, want)
	}
	if n := counterValue(t, s, "serve.worker_hung_kills"); n != 1 {
		t.Errorf("hung_kills = %d, want 1", n)
	}
	if n := counterValue(t, s, "serve.worker_spawns"); n != 2 {
		t.Errorf("serve.worker_spawns = %d, want 2 (the hung worker is replaced)", n)
	}
}

// TestChaosKillAllQuarantine: every launch dies, so the run exhausts
// its attempts and lands in quarantine — a structured 500, and later
// requests for the same key fail fast without burning more workers.
func TestChaosKillAllQuarantine(t *testing.T) {
	s := chaosServer(t, Config{Workers: 1, Chaos: "kill%1", MaxAttempts: 2})
	base := "http://" + s.Addr()
	req := map[string]any{"trace": "mcf.p1", "instructions": 30_000}
	resp, body := postJSON(t, base+"/v1/run", req)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d (%s), want 500 quarantine", resp.StatusCode, body)
	}
	var eb errorBody
	if err := json.Unmarshal(body, &eb); err != nil || eb.Kind != kindQuarantined {
		t.Fatalf("body %s, want kind %q", body, kindQuarantined)
	}
	if eb.Attempts != 2 {
		t.Errorf("attempts = %d, want 2", eb.Attempts)
	}
	if n := s.pool.quarantineCount(); n != 1 {
		t.Errorf("quarantineCount = %d, want 1", n)
	}
	if n := counterValue(t, s, "serve.quarantined"); n != 1 {
		t.Errorf("serve.quarantined counter = %d, want 1", n)
	}
	dispatches := s.pool.dispatches.Load()
	// The poison key fails fast now: same structured error, no new
	// worker dispatches.
	resp2, body2 := postJSON(t, base+"/v1/run", req)
	if resp2.StatusCode != http.StatusInternalServerError {
		t.Fatalf("repeat status %d (%s), want fast 500", resp2.StatusCode, body2)
	}
	var eb2 errorBody
	if err := json.Unmarshal(body2, &eb2); err != nil || eb2.Kind != kindQuarantined {
		t.Fatalf("repeat body %s, want kind %q", body2, kindQuarantined)
	}
	if after := s.pool.dispatches.Load(); after != dispatches {
		t.Errorf("quarantined repeat dispatched %d more attempts", after-dispatches)
	}
	// A different key is untouched by the quarantine bookkeeping (it
	// will die too under kill%1, but it must get its own attempts).
	other := sim.Default()
	other.Instructions = 30_000
	if re := s.pool.quarantineFor(quarantineKey("lbm.p2", other)); re != nil {
		t.Errorf("unrelated key pre-quarantined: %v", re)
	}
}

// TestWorkerViolationStructured: a checker violation inside the worker
// is a deterministic property of the key — it must come back as a
// structured "violation" error on the FIRST attempt, never retried.
func TestWorkerViolationStructured(t *testing.T) {
	s := chaosServer(t, Config{Workers: 1})
	resp, body := postJSON(t, "http://"+s.Addr()+"/v1/run", map[string]any{
		"trace":        "mcf.p1",
		"instructions": 50_000,
		"config":       map[string]any{"Check": "full", "Inject": "tag@1000"},
	})
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d (%s), want 500 violation", resp.StatusCode, body)
	}
	var eb errorBody
	if err := json.Unmarshal(body, &eb); err != nil || eb.Kind != kindViolation {
		t.Fatalf("body %s, want kind %q", body, kindViolation)
	}
	if n := counterValue(t, s, "serve.worker_restarts"); n != 0 {
		t.Errorf("a deterministic violation was retried %d times", n)
	}
}

// TestCorruptCheckpointRecovered: a bit-flipped checkpoint record is
// detected by its CRC, discarded, and transparently re-simulated —
// the client sees the correct table either way, never the corrupt one.
func TestCorruptCheckpointRecovered(t *testing.T) {
	dir := t.TempDir()
	run := func() (*http.Response, []byte, *Server) {
		s := startServer(t, Config{InProcess: true, CacheDir: dir})
		resp, body := postJSON(t, "http://"+s.Addr()+"/v1/run",
			map[string]any{"trace": "mcf.p1", "instructions": 30_000})
		return resp, body, s
	}
	resp, body, s1 := run()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("seed run: status %d (%s)", resp.StatusCode, body)
	}
	want := body
	if _, _, written := s1.store.Stats(); written != 1 {
		t.Fatalf("seed run persisted %d records, want 1", written)
	}
	s1.Close()

	// Flip one byte in the record body.
	ents, err := filepath.Glob(filepath.Join(dir, "*.ckpt"))
	if err != nil || len(ents) != 1 {
		t.Fatalf("checkpoint files: %v (%v)", ents, err)
	}
	raw, err := os.ReadFile(ents[0])
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x40
	if err := os.WriteFile(ents[0], raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := figures.VerifyDir(dir); err == nil {
		t.Fatal("VerifyDir accepted the corrupted record")
	}

	// A fresh service over the same directory must notice, discard, and
	// re-simulate — byte-identically.
	resp2, body2, s2 := run()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("recovery run: status %d (%s)", resp2.StatusCode, body2)
	}
	if !bytes.Equal(body2, want) {
		t.Fatalf("recovered result diverges:\ngot  %s\nwant %s", body2, want)
	}
	if n := counterValue(t, s2, "serve.runs_executed"); n != 1 {
		t.Fatalf("runs_executed = %d, want 1 (re-simulation)", n)
	}
	loaded, discarded, written := s2.store.Stats()
	if loaded != 0 || discarded != 1 || written != 1 {
		t.Fatalf("store stats after recovery: loaded=%d discarded=%d written=%d, want 0/1/1",
			loaded, discarded, written)
	}
	// And the rewritten record is whole again.
	if n, err := figures.VerifyDir(dir); err != nil || n != 1 {
		t.Fatalf("VerifyDir after recovery: %d records, %v", n, err)
	}
	// /statusz reports the discard, so an operator can see silent
	// corruption being absorbed.
	resp3, sb := getJSON(t, "http://"+s2.Addr()+"/statusz")
	if resp3.StatusCode != http.StatusOK {
		t.Fatalf("statusz: %d", resp3.StatusCode)
	}
	if !strings.Contains(string(sb), `"discarded": 1`) {
		t.Errorf("statusz does not report the discarded record: %s", sb)
	}
}

// TestWorkerBadEnvelope: a worker handed garbage on stdin exits
// non-zero without emitting a result line (defense in depth for a
// supervisor/worker version skew).
func TestWorkerBadEnvelope(t *testing.T) {
	var out, errOut bytes.Buffer
	code := WorkerMain(context.Background(), strings.NewReader("not json"), &out, &errOut)
	if code == 0 {
		t.Fatal("worker accepted a garbage envelope")
	}
	if strings.Contains(out.String(), `"result"`) {
		t.Fatalf("worker emitted a result for garbage: %s", out.String())
	}
}
