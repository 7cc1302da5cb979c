package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"basevictim/internal/cliexit"
	"basevictim/internal/serve"
	"basevictim/internal/sim"
	"basevictim/internal/workload"
)

func runArgs(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(context.Background(), args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

func TestUsageErrors(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"no url", nil},
		{"bad class", []string{"-url", "http://x", "-class", "bulk"}},
		{"extra args", []string{"-url", "http://x", "stray"}},
		{"bad flag", []string{"-nope"}},
	}
	for _, c := range cases {
		if code, _, _ := runArgs(t, c.args...); code != cliexit.Usage {
			t.Errorf("%s: exit %d, want %d", c.name, code, cliexit.Usage)
		}
	}
}

// TestDriveRealServer runs the generator against an in-process serve
// node with an instant fake runner: every request must complete, the
// error rate must be zero, and the JSON report must land with sane
// percentiles.
func TestDriveRealServer(t *testing.T) {
	s, err := serve.New(serve.Config{
		Workers:    2,
		QueueDepth: 16,
		Runner: func(ctx context.Context, p workload.Profile, cfg sim.Config) (sim.Result, error) {
			return sim.Result{
				Trace: p.Name, Org: cfg.Org, IPC: 1.0,
				Instructions: cfg.Instructions, Cycles: cfg.Instructions,
			}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Listen(context.Background(), "127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)

	out := filepath.Join(t.TempDir(), "LOAD.json")
	code, stdout, stderr := runArgs(t,
		"-url", "http://"+s.Addr(),
		"-duration", "300ms",
		"-clients", "3",
		"-class", "mixed",
		"-out", out,
		"-max-error-rate", "0",
	)
	if code != cliexit.OK {
		t.Fatalf("exit %d, want 0\nstdout: %s\nstderr: %s", code, stdout, stderr)
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep loadReport
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("bad report JSON: %v\n%s", err, raw)
	}
	r := rep.Requests
	if r.Total == 0 || r.OK == 0 {
		t.Fatalf("no traffic recorded: %+v", r)
	}
	if r.Errors != 0 {
		t.Fatalf("%d errors against a healthy server: %+v", r.Errors, r)
	}
	if r.P50MS <= 0 || r.P99MS < r.P50MS {
		t.Fatalf("implausible percentiles: %+v", r)
	}
	if rep.Host.GoVersion == "" || rep.Host.NumCPU == 0 {
		t.Fatalf("host block not populated: %+v", rep.Host)
	}
	if !strings.Contains(stdout, "requests") {
		t.Fatalf("summary not printed:\n%s", stdout)
	}
}

// TestGateTripsOnErrors: a server answering 500 to everything must
// trip -max-error-rate and exit with the Gate code.
func TestGateTripsOnErrors(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	t.Cleanup(srv.Close)
	code, _, stderr := runArgs(t,
		"-url", srv.URL, "-duration", "100ms", "-clients", "2",
		"-max-error-rate", "0.5",
	)
	if code != cliexit.Gate {
		t.Fatalf("exit %d, want %d (Gate)\nstderr: %s", code, cliexit.Gate, stderr)
	}
	if !strings.Contains(stderr, "quality gate failed") {
		t.Fatalf("gate breach not described: %s", stderr)
	}
}

// TestBackpressureIsNotAnError: 429 and 503 are the admission layer
// doing its job — a server that only sheds must pass a zero
// -max-error-rate gate.
func TestBackpressureIsNotAnError(t *testing.T) {
	for _, status := range []int{http.StatusTooManyRequests, http.StatusServiceUnavailable} {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Retry-After", "1")
			http.Error(w, "shed", status)
		}))
		code, stdout, stderr := runArgs(t,
			"-url", srv.URL, "-duration", "100ms", "-clients", "2",
			"-max-error-rate", "0",
		)
		srv.Close()
		if code != cliexit.OK {
			t.Fatalf("status %d: exit %d, want 0\nstdout: %s\nstderr: %s",
				status, code, stdout, stderr)
		}
	}
}

// TestPercentileMS pins the nearest-rank convention on a known ladder.
func TestPercentileMS(t *testing.T) {
	var lats []time.Duration
	for i := 1; i <= 100; i++ {
		lats = append(lats, time.Duration(i)*time.Millisecond)
	}
	if got := percentileMS(lats, 50); got != 50 {
		t.Errorf("p50 = %v, want 50", got)
	}
	if got := percentileMS(lats, 99); got != 99 {
		t.Errorf("p99 = %v, want 99", got)
	}
	if got := percentileMS(nil, 50); got != 0 {
		t.Errorf("p50(empty) = %v, want 0", got)
	}
	if got := percentileMS([]time.Duration{7 * time.Millisecond}, 99); got != 7 {
		t.Errorf("p99(single) = %v, want 7", got)
	}
}

// TestMissKeysNeverRepeat: every request of a run names a distinct
// checkpoint key, however long the run, so none is answered from the
// cache. The requests go through oneRequest to a recording server.
func TestMissKeysNeverRepeat(t *testing.T) {
	type key struct {
		Trace        string `json:"trace"`
		Instructions uint64 `json:"instructions"`
	}
	var (
		mu   sync.Mutex
		seen []key
	)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var k key
		if err := json.NewDecoder(r.Body).Decode(&k); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		mu.Lock()
		seen = append(seen, k)
		mu.Unlock()
		w.Write([]byte(`{}`))
	}))
	defer srv.Close()
	cfg := driveConfig{URL: srv.URL, Trace: "mcf.p1", Ins: 100_000, Class: "mixed", Timeout: 10 * time.Second}
	const n = 5000
	for seq := uint64(1); seq <= n; seq++ {
		if s := oneRequest(context.Background(), srv.Client(), cfg, 0, int(seq), seq); s.status != http.StatusOK {
			t.Fatalf("request %d: status %d", seq, s.status)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	distinct := map[key]bool{}
	for _, k := range seen {
		distinct[k] = true
	}
	if len(seen) != n || len(distinct) != n {
		t.Fatalf("%d requests named %d distinct keys, want %d of %d", len(seen), len(distinct), n, n)
	}
}
