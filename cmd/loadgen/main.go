// Command loadgen drives a bvsimd node (or cluster entry point) with
// sustained /v1/run traffic and reports what the admission layer did
// about it: latency percentiles, throttle (429) and shed (503) rates,
// and the genuine error rate.
//
// Usage:
//
//	loadgen -url http://127.0.0.1:8080 -duration 10s -clients 8
//	loadgen -url http://127.0.0.1:9001 -clients 16 -rate 50 \
//	  -class mixed -out LOAD_cluster3.json -max-error-rate 0.01
//
// Each client loops: submit one run, wait for the answer, sleep to
// hold its -rate. Every request of a run carries its own instruction
// budget (cache-busting: the checkpoint store would otherwise absorb
// the whole load after one simulation per key) and an X-Client-ID per
// client so per-client quotas apply as they would to real tenants.
//
// Backpressure is the service working as designed, so 429 (quota or
// queue-full) and 503 (draining or dead-shard shed) are tallied
// separately and are NOT errors. The error rate counts transport
// failures and unexpected statuses only. With -max-error-rate, a
// breach exits with cliexit.Gate (6) — the CI load-smoke job gates on
// errors, never on latency, because shared-runner latency is noise.
//
// -out writes a JSON report carrying the same host/date framing as
// the BENCH_*.json snapshots (cmd/bench) so the two artifact families
// sort and diff together.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"basevictim/internal/atomicio"
	"basevictim/internal/cliexit"
	otrace "basevictim/internal/obs/trace"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// hostInfo mirrors the BENCH snapshot's host block so load reports
// and perf snapshots are comparable artifacts.
type hostInfo struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

// loadStat is the aggregate over every request the run issued.
type loadStat struct {
	Total       int     `json:"total"`
	OK          int     `json:"ok"`          // 2xx
	Throttled   int     `json:"throttled"`   // 429: quota or queue-full
	Unavailable int     `json:"unavailable"` // 503: draining or dead-shard shed
	Errors      int     `json:"errors"`      // transport failures + unexpected statuses
	ErrorRate   float64 `json:"error_rate"`
	Rate429     float64 `json:"rate_429"`
	Rate503     float64 `json:"rate_503"`
	P50MS       float64 `json:"p50_ms"`
	P95MS       float64 `json:"p95_ms"`
	P99MS       float64 `json:"p99_ms"`
	// ForwardedPct is how much of the answered traffic some other node
	// executed (X-BV-Served-By differs from the contacted node) — on a
	// cluster this approximates the misroute rate of the entry point.
	ForwardedPct float64 `json:"forwarded_pct"`
}

// slowRequest is one row of the slowest-requests table: the trace ID
// loadgen originated for the request (greppable in every involved
// node's /debug/requests and trace-export JSONL), who executed it, and
// how many cluster hops it took.
type slowRequest struct {
	Trace     string  `json:"trace"`
	ServedBy  string  `json:"served_by,omitempty"`
	Hops      int     `json:"hops"`
	Status    int     `json:"status"`
	LatencyMS float64 `json:"latency_ms"`
}

type loadReport struct {
	Date            string   `json:"date"`
	Host            hostInfo `json:"host"`
	URL             string   `json:"url"`
	DurationSeconds float64  `json:"duration_seconds"`
	Clients         int      `json:"clients"`
	RatePerClient   float64  `json:"rate_per_client"`
	Class           string   `json:"class"`
	Instructions    uint64   `json:"instructions"`
	Requests        loadStat `json:"requests"`
	// Slowest is the tail of the run: the N slowest answered requests,
	// worst first, each carrying the trace ID to chase through the
	// service's flight recorder.
	Slowest []slowRequest `json:"slowest,omitempty"`
}

// sample is one request's outcome as a worker saw it.
type sample struct {
	status    int // 0 = transport failure
	latency   time.Duration
	forwarded bool
	trace     string // the X-BV-Trace ID this request originated
	servedBy  string // X-BV-Served-By response header
	hops      int    // X-BV-Hops response header ("0" local, "1" relayed)
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("loadgen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		url       = fs.String("url", "", "base URL of the node to drive (required), e.g. http://127.0.0.1:8080")
		duration  = fs.Duration("duration", 5*time.Second, "how long to sustain the load")
		clients   = fs.Int("clients", 4, "concurrent clients, each with its own X-Client-ID")
		rate      = fs.Float64("rate", 0, "per-client requests/second ceiling (0 = as fast as answers return)")
		trace     = fs.String("trace", "mcf.p1", "workload trace to request")
		ins       = fs.Uint64("ins", 50_000, "base instruction budget (each request offsets it to bust the checkpoint cache)")
		class     = fs.String("class", "interactive", `request class: "interactive", "batch", or "mixed" (alternating)`)
		timeoutMS = fs.Int("timeout-ms", 30_000, "per-request client-side timeout")
		out       = fs.String("out", "", "write the JSON report here (atomic)")
		maxErrRet = fs.Float64("max-error-rate", -1, "exit with code 6 when the error rate exceeds this fraction (<0 = no gate)")
		seed      = fs.Uint64("seed", 1, "trace-ID seed (requests carry deterministic X-BV-Trace IDs derived from it)")
		slowestN  = fs.Int("slowest", 5, "how many slowest requests to list with their trace IDs (0 disables)")
	)
	if err := fs.Parse(args); err != nil {
		return cliexit.Usage
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "loadgen: unexpected arguments: %v\n", fs.Args())
		return cliexit.Usage
	}
	if *url == "" {
		fmt.Fprintln(stderr, "loadgen: -url is required")
		return cliexit.Usage
	}
	switch *class {
	case "interactive", "batch", "mixed":
	default:
		fmt.Fprintf(stderr, "loadgen: bad -class %q (want interactive, batch, or mixed)\n", *class)
		return cliexit.Usage
	}

	rep, err := drive(ctx, driveConfig{
		URL:       strings.TrimRight(*url, "/"),
		Duration:  *duration,
		Clients:   *clients,
		Rate:      *rate,
		Trace:     *trace,
		Ins:       *ins,
		Class:     *class,
		Timeout:   time.Duration(*timeoutMS) * time.Millisecond,
		ServedVia: servedVia(*url),
		Seed:      *seed,
		SlowestN:  *slowestN,
	})
	if err != nil {
		fmt.Fprintf(stderr, "loadgen: %s\n", cliexit.Describe(err))
		return cliexit.Code(err)
	}
	printReport(stdout, rep)

	if *out != "" {
		buf, err := json.MarshalIndent(rep, "", "  ")
		if err == nil {
			err = atomicio.WriteFile(*out, append(buf, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(stderr, "loadgen: write %s: %v\n", *out, err)
			return cliexit.Failure
		}
		fmt.Fprintf(stdout, "wrote %s\n", *out)
	}
	if *maxErrRet >= 0 && rep.Requests.ErrorRate > *maxErrRet {
		err := &cliexit.GateError{Msg: fmt.Sprintf(
			"error rate %.4f exceeds -max-error-rate %.4f (%d errors / %d requests)",
			rep.Requests.ErrorRate, *maxErrRet, rep.Requests.Errors, rep.Requests.Total)}
		fmt.Fprintf(stderr, "loadgen: %s\n", cliexit.Describe(err))
		return cliexit.Code(err)
	}
	return cliexit.OK
}

type driveConfig struct {
	URL       string
	Duration  time.Duration
	Clients   int
	Rate      float64
	Trace     string
	Ins       uint64
	Class     string
	Timeout   time.Duration
	ServedVia string // host:port the URL points at, for forwarded detection
	Seed      uint64 // trace-ID derivation seed
	SlowestN  int    // slowest-requests table size
}

// traceID derives the deterministic X-BV-Trace ID for the seq-th
// request: a splitmix64 finalizer over seed and sequence, so two runs
// with the same -seed originate identical IDs (greppable across the
// cluster's flight recorders) while consecutive requests stay
// well-distributed.
func traceID(seed, seq uint64) string {
	z := seed + seq*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return otrace.FormatID(z ^ (z >> 31))
}

// servedVia extracts host:port from the URL for comparison against the
// X-BV-Served-By response header.
func servedVia(url string) string {
	s := strings.TrimPrefix(strings.TrimPrefix(url, "http://"), "https://")
	if i := strings.IndexByte(s, '/'); i >= 0 {
		s = s[:i]
	}
	return s
}

// drive runs the load and aggregates. It returns early (with whatever
// was collected) if ctx is cancelled.
func drive(ctx context.Context, cfg driveConfig) (*loadReport, error) {
	if cfg.Clients < 1 {
		return nil, fmt.Errorf("need at least one client, got %d", cfg.Clients)
	}
	ctx, cancel := context.WithTimeout(ctx, cfg.Duration)
	defer cancel()

	var (
		mu      sync.Mutex
		samples []sample
		seq     atomic.Uint64
		wg      sync.WaitGroup
	)
	client := &http.Client{} // per-request ctx carries the timeout
	start := time.Now()
	for c := 0; c < cfg.Clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var interval time.Duration
			if cfg.Rate > 0 {
				interval = time.Duration(float64(time.Second) / cfg.Rate)
			}
			for i := 0; ctx.Err() == nil; i++ {
				iterStart := time.Now()
				s := oneRequest(ctx, client, cfg, c, i, seq.Add(1))
				mu.Lock()
				samples = append(samples, s)
				mu.Unlock()
				if interval > 0 {
					if d := interval - time.Since(iterStart); d > 0 {
						select {
						case <-time.After(d):
						case <-ctx.Done():
						}
					}
				}
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)

	rep := &loadReport{
		Date: time.Now().UTC().Format("2006-01-02"),
		Host: hostInfo{
			GoVersion:  runtime.Version(),
			GOOS:       runtime.GOOS,
			GOARCH:     runtime.GOARCH,
			NumCPU:     runtime.NumCPU(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
		},
		URL:             cfg.URL,
		DurationSeconds: elapsed.Seconds(),
		Clients:         cfg.Clients,
		RatePerClient:   cfg.Rate,
		Class:           cfg.Class,
		Instructions:    cfg.Ins,
		Requests:        aggregate(samples),
		Slowest:         slowest(samples, cfg.SlowestN),
	}
	return rep, nil
}

// slowest picks the n slowest answered requests, worst first. Every
// answered status qualifies — a slow 429 says as much about the tail
// as a slow 200 — but transport failures and deadline cutoffs carry no
// server-side trace tree, so they are excluded.
func slowest(samples []sample, n int) []slowRequest {
	if n <= 0 {
		return nil
	}
	answered := make([]sample, 0, len(samples))
	for _, s := range samples {
		if s.status >= 100 {
			answered = append(answered, s)
		}
	}
	sort.Slice(answered, func(i, j int) bool { return answered[i].latency > answered[j].latency })
	if len(answered) > n {
		answered = answered[:n]
	}
	rows := make([]slowRequest, len(answered))
	for i, s := range answered {
		rows[i] = slowRequest{
			Trace:     s.trace,
			ServedBy:  s.servedBy,
			Hops:      s.hops,
			Status:    s.status,
			LatencyMS: float64(s.latency) / float64(time.Millisecond),
		}
	}
	return rows
}

// oneRequest submits a single /v1/run and classifies the outcome. A
// request cut off by the run deadline mid-flight is dropped from the
// error tally by reporting the context's own status (0 with ctx done
// is "cancelled", not "transport error").
func oneRequest(ctx context.Context, client *http.Client, cfg driveConfig, clientID, iter int, seq uint64) sample {
	cls := cfg.Class
	if cls == "mixed" {
		if iter%2 == 0 {
			cls = "interactive"
		} else {
			cls = "batch"
		}
	}
	body, _ := json.Marshal(map[string]any{
		"trace": cfg.Trace,
		// Distinct budgets make distinct checkpoint keys, so every
		// request is real work instead of a cache hit. seq is unique for
		// the whole run, so the budget is too; k requests ask for at most
		// k instructions over -ins, well inside the admission cap.
		"instructions": cfg.Ins + seq,
		"class":        cls,
	})
	rctx, cancel := context.WithTimeout(ctx, cfg.Timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(rctx, http.MethodPost, cfg.URL+"/v1/run", bytes.NewReader(body))
	if err != nil {
		return sample{status: 0}
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Client-ID", fmt.Sprintf("loadgen-%d", clientID))
	// Originate the distributed trace: the service adopts this ID for
	// its request tree (and propagates it across forward hops), so the
	// slowest-requests table below indexes straight into every involved
	// node's /debug/requests.
	id := traceID(cfg.Seed, seq)
	req.Header.Set(otrace.TraceHeader, id)

	begin := time.Now()
	res, err := client.Do(req)
	lat := time.Since(begin)
	if err != nil {
		if ctx.Err() != nil {
			return sample{status: -1, latency: lat} // run ended, not an error
		}
		return sample{status: 0, latency: lat, trace: id}
	}
	io.Copy(io.Discard, res.Body) //nolint:errcheck // draining for connection reuse
	res.Body.Close()
	served := res.Header.Get("X-BV-Served-By")
	hops := 0
	if n, err := strconv.Atoi(res.Header.Get("X-BV-Hops")); err == nil {
		hops = n
	}
	return sample{
		status:    res.StatusCode,
		latency:   lat,
		forwarded: served != "" && served != cfg.ServedVia,
		trace:     id,
		servedBy:  served,
		hops:      hops,
	}
}

func aggregate(samples []sample) loadStat {
	var st loadStat
	var lats []time.Duration
	forwarded := 0
	for _, s := range samples {
		if s.status == -1 {
			continue // cut off by the run deadline; not issued-and-failed
		}
		st.Total++
		switch {
		case s.status >= 200 && s.status < 300:
			st.OK++
			lats = append(lats, s.latency)
			if s.forwarded {
				forwarded++
			}
		case s.status == http.StatusTooManyRequests:
			st.Throttled++
		case s.status == http.StatusServiceUnavailable:
			st.Unavailable++
		default:
			st.Errors++
		}
	}
	if st.Total > 0 {
		st.ErrorRate = float64(st.Errors) / float64(st.Total)
		st.Rate429 = float64(st.Throttled) / float64(st.Total)
		st.Rate503 = float64(st.Unavailable) / float64(st.Total)
	}
	if st.OK > 0 {
		st.ForwardedPct = 100 * float64(forwarded) / float64(st.OK)
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	st.P50MS = percentileMS(lats, 50)
	st.P95MS = percentileMS(lats, 95)
	st.P99MS = percentileMS(lats, 99)
	return st
}

// percentileMS reads the p-th percentile from an ascending slice
// (nearest-rank, the same convention the forwarder's hedge delay
// uses).
func percentileMS(sorted []time.Duration, p int) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := (len(sorted)*p + 99) / 100
	if i > 0 {
		i--
	}
	return float64(sorted[i]) / float64(time.Millisecond)
}

func printReport(w io.Writer, rep *loadReport) {
	r := rep.Requests
	fmt.Fprintf(w, "loadgen: %s for %.1fs, %d clients", rep.URL, rep.DurationSeconds, rep.Clients)
	if rep.RatePerClient > 0 {
		fmt.Fprintf(w, " @ %.1f req/s each", rep.RatePerClient)
	}
	fmt.Fprintf(w, " (class %s)\n", rep.Class)
	fmt.Fprintf(w, "  requests  %d total: %d ok, %d throttled (429), %d unavailable (503), %d errors\n",
		r.Total, r.OK, r.Throttled, r.Unavailable, r.Errors)
	fmt.Fprintf(w, "  rates     error %.4f, 429 %.4f, 503 %.4f\n", r.ErrorRate, r.Rate429, r.Rate503)
	fmt.Fprintf(w, "  latency   p50 %.1fms, p95 %.1fms, p99 %.1fms", r.P50MS, r.P95MS, r.P99MS)
	if r.ForwardedPct > 0 {
		fmt.Fprintf(w, " (%.0f%% served by another node)", r.ForwardedPct)
	}
	fmt.Fprintln(w)
	if len(rep.Slowest) > 0 {
		fmt.Fprintf(w, "  slowest   %-16s  %-21s  %4s  %6s  %s\n", "trace", "served-by", "hops", "status", "latency")
		for _, s := range rep.Slowest {
			served := s.ServedBy
			if served == "" {
				served = "-"
			}
			fmt.Fprintf(w, "            %-16s  %-21s  %4d  %6d  %.1fms\n", s.Trace, served, s.Hops, s.Status, s.LatencyMS)
		}
	}
}
