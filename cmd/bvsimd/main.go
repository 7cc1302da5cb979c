// Command bvsimd serves simulations over HTTP/JSON: a long-lived,
// fault-tolerant front end over the same engine the CLIs drive.
//
// Usage:
//
//	bvsimd -listen 127.0.0.1:8080 -cache-dir ckpt
//	bvsimd -listen :0 -workers 4 -quota-rate 2 -quota-burst 16
//	bvsimd -listen :8080 -chaos kill@1 -seed 7     # chaos harness
//	bvsimd -listen :9001 -advertise 127.0.0.1:9001 \
//	  -peers 127.0.0.1:9002,127.0.0.1:9003 -cache-dir shared  # cluster
//
// Endpoints (see internal/serve): POST /v1/run and /v1/sweep submit
// work; GET /v1/traces, /v1/cluster, /healthz, /statusz and
// /debug/vars observe.
//
// With -peers, the node joins a consistent-hash cluster: each (trace,
// config) key has one owner, misrouted requests forward to it, and a
// dead owner's keys fail over along the ring (internal/cluster). All
// peers should share one -cache-dir (or a mirrored copy of it) so any
// node can serve any completed run byte-identically.
// Admission is bounded (429 + Retry-After under overload or quota),
// each simulation runs in a supervised, reused worker process (crashes
// and hangs retried with backoff on a fresh worker, poison runs
// quarantined), and SIGTERM or SIGINT drains gracefully: accepted
// work finishes and persists, new work is refused with 503, and a
// restart with the same -cache-dir serves the finished runs from disk
// byte-identically.
//
// Exit codes follow internal/cliexit: 0 after a clean drain, 1 error,
// 2 usage, 4 when the drain deadline forced a hard stop, 5 when the
// listen address cannot be bound.
//
// The binary re-execs itself (BVSIMD_WORKER=1 in the environment) as
// its worker processes; operators only ever run the service form.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"basevictim/internal/cliexit"
	"basevictim/internal/cluster"
	"basevictim/internal/serve"
)

func main() {
	if os.Getenv("BVSIMD_WORKER") != "" {
		// Worker process: jobs on stdin until EOF, heartbeat and result
		// lines on stdout. The supervisor owns our lifetime (stdin EOF or
		// SIGKILL), so no signal handling.
		os.Exit(serve.WorkerMain(context.Background(), os.Stdin, os.Stdout, os.Stderr))
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bvsimd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		listen     = fs.String("listen", "127.0.0.1:8080", "address to serve on (host:port, :0 picks a port)")
		workers    = fs.Int("workers", 2, "concurrent simulations")
		queueDepth = fs.Int("queue-depth", 64, "bounded admission queue capacity")
		quotaRate  = fs.Float64("quota-rate", 0, "per-client requests/second (0 = quotas off)")
		quotaBurst = fs.Int("quota-burst", 8, "per-client burst size")
		maxIns     = fs.Uint64("max-ins", 200_000_000, "per-request instruction budget cap")
		timeout    = fs.Duration("timeout", 2*time.Minute, "default per-request deadline")
		maxTimeout = fs.Duration("max-timeout", 10*time.Minute, "largest per-request deadline a client may ask for")
		attempts   = fs.Int("max-attempts", 3, "worker attempts per run before quarantine")
		heartbeat  = fs.Duration("heartbeat", 250*time.Millisecond, "worker heartbeat period")
		hungAfter  = fs.Duration("hung-after", 0, "kill a worker silent this long (0 = 10x heartbeat)")
		seed       = fs.Uint64("seed", 1, "retry-jitter (and chaos) seed")
		cacheDir   = fs.String("cache-dir", "", "durable checkpoint directory (resume mode; sharable between processes)")
		chaos      = fs.String("chaos", "", "deterministic fault injection, e.g. kill@1,stall@2 (tests/CI)")
		inProcess  = fs.Bool("inprocess", false, "simulate in-process instead of worker processes (no crash isolation)")
		drainGrace = fs.Duration("drain-grace", 30*time.Second, "how long a SIGTERM drain may run before a hard stop")
		peers      = fs.String("peers", "", "comma-separated peer addresses (host:port); enables cluster mode")
		advertise  = fs.String("advertise", "", "address peers reach this node at (default: the bound address)")
		probeEvery = fs.Duration("probe-interval", 500*time.Millisecond, "cluster heartbeat period per peer")
		shedPoint  = fs.Int("shed-point", 0, "queue depth refusing dead-shard failover absorption (0 = 3/4 of queue-depth)")
		traceCap   = fs.Int("trace-capacity", 0, "completed traces the flight recorder retains (0 = default 512, negative disables tracing)")
		traceOut   = fs.String("trace-export", "", "write the flight recorder as JSONL here after drain")
	)
	if err := fs.Parse(args); err != nil {
		return cliexit.Usage
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "bvsimd: unexpected arguments: %v\n", fs.Args())
		return cliexit.Usage
	}
	var peerList []string
	for _, p := range strings.Split(*peers, ",") {
		if p = strings.TrimSpace(p); p != "" {
			peerList = append(peerList, p)
		}
	}
	if len(peerList) == 0 && *advertise != "" {
		fmt.Fprintln(stderr, "bvsimd: -advertise without -peers does nothing; name the peer set")
		return cliexit.Usage
	}

	srv, err := serve.New(serve.Config{
		Workers:         *workers,
		QueueDepth:      *queueDepth,
		QuotaRate:       *quotaRate,
		QuotaBurst:      *quotaBurst,
		DefaultTimeout:  *timeout,
		MaxTimeout:      *maxTimeout,
		MaxInstructions: *maxIns,
		MaxAttempts:     *attempts,
		Heartbeat:       *heartbeat,
		HungAfter:       *hungAfter,
		Seed:            *seed,
		CacheDir:        *cacheDir,
		Chaos:           *chaos,
		InProcess:       *inProcess,
		ShedPoint:       *shedPoint,
		TraceCapacity:   *traceCap,
		Cluster: cluster.Config{
			Self:          *advertise,
			Peers:         peerList,
			ProbeInterval: *probeEvery,
		},
	})
	if err != nil {
		fmt.Fprintf(stderr, "bvsimd: %s\n", cliexit.Describe(err))
		return cliexit.Code(err)
	}
	// The server's lifetime context is NOT the signal context: a signal
	// must begin a drain, not instantly cancel every in-flight run.
	if err := srv.Listen(context.Background(), *listen); err != nil {
		fmt.Fprintf(stderr, "bvsimd: %s\n", cliexit.Describe(err))
		return cliexit.Code(err)
	}
	fmt.Fprintf(stdout, "bvsimd: serving on %s (workers=%d queue=%d)\n", srv.Addr(), *workers, *queueDepth)
	if len(peerList) > 0 {
		fmt.Fprintf(stdout, "bvsimd: cluster mode: %d peers (%s)\n", len(peerList), strings.Join(peerList, ", "))
	}
	if *chaos != "" {
		fmt.Fprintf(stdout, "bvsimd: CHAOS ACTIVE: %s (seed=%d)\n", *chaos, *seed)
	}

	<-ctx.Done()
	fmt.Fprintf(stderr, "bvsimd: signal received; draining (grace %s)\n", *drainGrace)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainGrace)
	defer cancel()
	// The export runs after Drain on both outcomes: even a forced stop
	// leaves completed traces in the recorder, and a post-mortem of a
	// drain that blew its grace period is exactly when they matter.
	exportTraces := func() {
		if *traceOut == "" {
			return
		}
		if err := srv.ExportTraces(*traceOut); err != nil {
			fmt.Fprintf(stderr, "bvsimd: trace export: %s\n", cliexit.Describe(err))
			return
		}
		fmt.Fprintf(stderr, "bvsimd: traces exported to %s\n", *traceOut)
	}
	if err := srv.Drain(drainCtx); err != nil {
		exportTraces()
		fmt.Fprintf(stderr, "bvsimd: drain forced a hard stop: %s\n", cliexit.Describe(err))
		return cliexit.Code(err)
	}
	exportTraces()
	fmt.Fprintln(stderr, "bvsimd: drained cleanly")
	return cliexit.OK
}
