// Package serve is the bvsimd simulation service: an HTTP/JSON front
// end over the figures session (in-memory singleflight dedupe), the
// durable checkpoint store (SHA-256-keyed, CRC-verified records, with
// the cross-process claim), and a supervised pool of worker processes.
//
// The design goal is fault tolerance with honest failure modes. Every
// fault class has a defined client-visible outcome (see DESIGN.md §12
// for the full matrix): worker crashes and hangs retry with capped
// exponential backoff and quarantine; overload sheds load with 429 +
// Retry-After against a bounded queue and per-client token buckets;
// client disconnects cancel the run without poisoning the cache;
// SIGTERM drains — finish the accepted work, persist it, refuse new
// work — so a restarted service answers the same questions from disk,
// byte-identically. The one outcome that can never happen is a
// silently wrong table.
package serve

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"basevictim/internal/cluster"
	"basevictim/internal/figures"
	"basevictim/internal/obs"
	otrace "basevictim/internal/obs/trace"
	"basevictim/internal/sim"
	"basevictim/internal/workload"
)

// Config tunes a Server. The zero value is usable: every field has a
// serving default, and chaos is off.
type Config struct {
	// Workers is the number of concurrent simulations (dispatcher
	// goroutines, each driving at most one worker process at a time)
	// and the most worker processes kept alive between jobs. Default 2.
	Workers int
	// QueueDepth bounds the admission queue; a request that does not
	// fit is shed with 429, never parked. Default 64.
	QueueDepth int
	// QuotaRate and QuotaBurst shape the per-client token bucket
	// (requests/second and bucket size). Rate 0 disables quotas.
	QuotaRate  float64
	QuotaBurst int
	// DefaultTimeout applies to requests that name no deadline;
	// MaxTimeout caps what a client may ask for. Defaults 2m / 10m.
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// MaxInstructions caps the per-request instruction budget.
	// Default 200M (the paper's full-length runs).
	MaxInstructions uint64
	// MaxAttempts is worker attempts per run before quarantine;
	// BackoffBase/BackoffCap and Seed shape the retry schedule.
	MaxAttempts int
	BackoffBase time.Duration
	BackoffCap  time.Duration
	Seed        uint64
	// Heartbeat and HungAfter tune the worker liveness protocol.
	Heartbeat time.Duration
	HungAfter time.Duration
	// ReadHeaderTimeout bounds how long a (possibly malicious) slow
	// client may dribble request headers. Default 10s.
	ReadHeaderTimeout time.Duration
	// CacheDir, when set, attaches the durable checkpoint store in
	// resume mode: completed runs persist across restarts, and several
	// bvsimd processes may share the directory (cross-process claim).
	CacheDir string
	// Chaos is a deterministic fault-injection spec (see chaos.go);
	// "" disables injection.
	Chaos string
	// Cluster configures the multi-host peer layer (internal/cluster).
	// The zero value (no peers) serves single-host. Cluster.Self
	// defaults to the bound address at Listen; Cluster.Seed defaults
	// to Seed.
	Cluster cluster.Config
	// ShedPoint is the queue depth at which this node stops absorbing
	// dead shards' keys during cluster failover (its own shard still
	// sheds only through the normal queue-full path). Default 3/4 of
	// QueueDepth.
	ShedPoint int
	// TraceCapacity sizes the request flight recorder (how many
	// completed traces GET /debug/requests retains). 0 means the
	// default (512); negative disables tracing entirely — request
	// handling then pays one nil check per span site.
	TraceCapacity int
	// WorkerArgv overrides the worker command line. Default: this
	// executable (re-exec'd with BVSIMD_WORKER=1).
	WorkerArgv []string
	// InProcess runs simulations in the service process instead of
	// workers — no crash isolation, no retries, but no exec either.
	InProcess bool
	// Runner, when non-nil, replaces the execution backend entirely
	// (tests use it to script timing without real simulations).
	Runner func(context.Context, workload.Profile, sim.Config) (sim.Result, error)
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.QuotaBurst <= 0 {
		c.QuotaBurst = 8
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 2 * time.Minute
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 10 * time.Minute
	}
	if c.MaxInstructions == 0 {
		c.MaxInstructions = 200_000_000
	}
	if c.ReadHeaderTimeout <= 0 {
		c.ReadHeaderTimeout = 10 * time.Second
	}
	if c.ShedPoint <= 0 {
		c.ShedPoint = c.QueueDepth * 3 / 4
		if c.ShedPoint < 1 {
			c.ShedPoint = 1
		}
	}
	return c
}

// Server is one bvsimd instance.
type Server struct {
	cfg     Config
	m       *metrics
	q       *queue
	quota   *quotaTable
	session *figures.Session
	store   *figures.Store
	pool    *pool            // nil when InProcess or Runner is set
	cluster *cluster.Cluster // nil when Config.Cluster names no peers

	tracer   *otrace.Tracer   // nil when TraceCapacity < 0
	recorder *otrace.Recorder // nil when TraceCapacity < 0

	http *http.Server
	ln   net.Listener

	baseCtx    context.Context
	cancelBase context.CancelFunc

	wg        sync.WaitGroup // dispatchers
	draining  atomic.Bool
	drainOnce sync.Once
	drainErr  error
}

// New builds a server. It validates the chaos spec and opens the
// checkpoint directory, but does not bind a socket — see Listen.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	spec, err := parseChaos(cfg.Chaos)
	if err != nil {
		return nil, fmt.Errorf("bvsimd: %w", err)
	}
	s := &Server{
		cfg:     cfg,
		m:       newMetrics(),
		q:       newQueue(cfg.QueueDepth),
		quota:   newQuotaTable(cfg.QuotaRate, cfg.QuotaBurst),
		session: figures.NewSession(0),
	}
	if cfg.CacheDir != "" {
		s.store, err = figures.NewStore(cfg.CacheDir, true)
		if err != nil {
			return nil, fmt.Errorf("bvsimd: %w", err)
		}
		s.session.Store = s.store
	}
	runner := cfg.Runner
	if runner == nil && !cfg.InProcess {
		argv := cfg.WorkerArgv
		if len(argv) == 0 {
			exe, err := os.Executable()
			if err != nil {
				return nil, fmt.Errorf("bvsimd: cannot locate own binary for workers: %w", err)
			}
			argv = []string{exe}
		}
		s.pool = newPool(poolConfig{
			argv:        argv,
			heartbeat:   cfg.Heartbeat,
			hungAfter:   cfg.HungAfter,
			maxAttempts: cfg.MaxAttempts,
			backoffBase: cfg.BackoffBase,
			backoffCap:  cfg.BackoffCap,
			seed:        cfg.Seed,
			chaos:       spec,
		}, s.m)
		runner = s.pool.run
	}
	if runner != nil {
		inner := runner
		runner = func(ctx context.Context, p workload.Profile, c sim.Config) (sim.Result, error) {
			s.m.touch(s.m.runsExecuted.Inc)
			return inner(ctx, p, c)
		}
		s.session.SetRunner(runner)
	} else {
		s.session.SetRunner(func(ctx context.Context, p workload.Profile, c sim.Config) (sim.Result, error) {
			s.m.touch(s.m.runsExecuted.Inc)
			return sim.RunSingleCtx(ctx, p, c)
		})
	}
	return s, nil
}

// Listen binds addr, starts the dispatchers and the HTTP front end,
// and returns. ctx is the server's lifetime: cancelling it (or a
// forced Drain) cancels every in-flight request and run. A bind
// failure comes back wrapped so cliexit classifies it as exit code 5.
func (s *Server) Listen(ctx context.Context, addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("bvsimd: listen %s: %w", addr, err)
	}
	s.ln = ln
	s.baseCtx, s.cancelBase = context.WithCancel(ctx)
	if s.cfg.Cluster.Enabled() {
		cc := s.cfg.Cluster
		if cc.Self == "" {
			cc.Self = ln.Addr().String()
		}
		if cc.Seed == 0 {
			cc.Seed = s.cfg.Seed
		}
		cl, err := cluster.New(cc)
		if err != nil {
			ln.Close() //nolint:errcheck // abandoning the bind on a bad peer set
			s.cancelBase()
			return fmt.Errorf("bvsimd: %w", err)
		}
		s.cluster = cl
		s.cluster.Start(s.baseCtx)
	}
	if s.cfg.TraceCapacity >= 0 {
		// The tracer is built here, not in New: its Peer must be the
		// advertised cluster address, which defaults to the bound one.
		capacity := s.cfg.TraceCapacity
		if capacity == 0 {
			capacity = 512
		}
		peer := ln.Addr().String()
		if s.cluster != nil {
			peer = s.cluster.Self()
		}
		s.recorder = otrace.NewRecorder(capacity)
		s.tracer = otrace.New(otrace.Config{
			Seed:     s.cfg.Seed,
			Peer:     peer,
			Recorder: s.recorder,
			Hooks: otrace.Hooks{
				SpanStarted: func() { s.m.touch(s.m.traceSpans.Inc) },
				SpanDropped: func() { s.m.touch(s.m.traceDropped.Inc) },
				Evicted:     func() { s.m.touch(s.m.traceEvicted.Inc) },
			},
		})
	}
	for i := 0; i < s.cfg.Workers; i++ {
		s.wg.Add(1)
		go s.dispatch()
	}
	s.http = &http.Server{
		Handler:           s.mux(),
		ReadHeaderTimeout: s.cfg.ReadHeaderTimeout,
		BaseContext:       func(net.Listener) context.Context { return s.baseCtx },
	}
	go s.http.Serve(ln) //nolint:errcheck // Serve always returns ErrServerClosed after Drain/Close
	setActive(s)
	expvarOnce.Do(publishExpvar)
	return nil
}

// Addr reports the bound address (useful with ":0").
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Session exposes the underlying figures session (tests reach through
// it to pre-warm or inspect the cache layers).
func (s *Server) Session() *figures.Session { return s.session }

// ExportTraces writes the flight recorder's retained traces to path as
// JSONL (atomically: temp file + rename). Call it after Drain so every
// accepted request's trace has landed in the recorder.
func (s *Server) ExportTraces(path string) error {
	if s.recorder == nil {
		return errors.New("bvsimd: tracing disabled; no traces to export")
	}
	return s.recorder.WriteJSONL(path, s.tracer.Peer())
}

// forcedCloseGrace bounds how long a forced drain waits for the
// handlers it just cancelled to write their structured 503s before the
// connections are closed hard.
const forcedCloseGrace = 500 * time.Millisecond

// Drain is the graceful shutdown: stop admitting (new requests shed
// with 503), let the dispatchers finish and persist every already
// accepted job, deliver those responses, then stop. If ctx expires
// first the remaining runs are cancelled — workers killed, their keys
// simply absent from the checkpoint directory, never half-written —
// and their clients still get a 503 within forcedCloseGrace.
func (s *Server) Drain(ctx context.Context) error {
	s.drainOnce.Do(func() {
		s.draining.Store(true)
		s.m.touch(func() { s.m.draining.Set(1) })
		if s.cluster != nil {
			// Stop probing first: a draining node keeps answering peers'
			// probes with 503, which is how they learn it is leaving.
			s.cluster.Stop()
		}
		s.q.close()
		done := make(chan struct{})
		go func() {
			s.wg.Wait()
			close(done)
		}()
		select {
		case <-done:
		case <-ctx.Done():
			s.cancelBase() // cancels every request ctx, which kills the busy workers
			<-done
			s.drainErr = ctx.Err()
		}
		if s.pool != nil {
			s.pool.close() // no dispatcher is left, so every live worker is idle
		}
		if s.http != nil {
			shutCtx := ctx
			if ctx.Err() != nil {
				// An expired ctx would make Shutdown return at once and
				// Close would cut off the cancelled handlers mid-answer.
				var cancel context.CancelFunc
				shutCtx, cancel = context.WithTimeout(context.Background(), forcedCloseGrace)
				defer cancel()
			}
			if err := s.http.Shutdown(shutCtx); err != nil {
				s.http.Close() //nolint:errcheck // hard stop after a failed graceful one
				if s.drainErr == nil {
					s.drainErr = err
				}
			}
		}
		s.cancelBase()
	})
	return s.drainErr
}

// Close is the unceremonious stop (tests, fatal errors): everything
// cancelled, no grace.
func (s *Server) Close() {
	expired, cancel := context.WithCancel(context.Background())
	cancel()
	s.Drain(expired) //nolint:errcheck // an already-expired ctx makes this the forced path
}

// dispatch is one worker loop: pull a job, run it through the session
// (cache → checkpoint claim → runner), deliver the result.
func (s *Server) dispatch() {
	defer s.wg.Done()
	for {
		j, ok := s.q.pop()
		if !ok {
			return
		}
		s.syncQueueGauges()
		j.qspan.SetAttrInt("depth_at_pop", int64(s.q.depth()))
		j.qspan.End()
		if j.ctx.Err() != nil {
			// The client gave up (or timed out) while queued; skip the
			// work entirely rather than simulating for nobody.
			j.done <- jobResult{err: j.ctx.Err()}
			continue
		}
		s.m.touch(func() { s.m.inflight.Add(1) })
		exec := j.span.Child("serve.exec", otrace.KindInternal)
		res, err := s.session.Run(otrace.ContextWith(j.ctx, exec), j.trace, j.cfg)
		exec.Fail(err)
		exec.End()
		s.m.touch(func() {
			s.m.inflight.Add(-1)
			s.m.completed.Inc()
		})
		j.done <- jobResult{res: res, err: err}
	}
}

// statusInfo is the /statusz (and expvar "serve") document.
type statusInfo struct {
	Draining    bool         `json:"draining"`
	QueueDepth  int          `json:"queue_depth"`
	Quarantined int          `json:"quarantined"`
	Checkpoints *ckptInfo    `json:"checkpoints,omitempty"`
	Metrics     obs.Snapshot `json:"metrics"`
	Workers     int          `json:"workers"`
	QueueCap    int          `json:"queue_capacity"`
	ShedPoint   int          `json:"shed_point"`
	// Cluster is this node's advertised address when clustering is on.
	Cluster string `json:"cluster,omitempty"`
	// ClusterStats summarizes the forwarding layer when clustering is
	// on — in particular the hedge outcome (launches vs wins), which
	// the raw counter registry records but this document previously
	// never surfaced.
	ClusterStats *clusterStats `json:"cluster_stats,omitempty"`
}

// clusterStats is the /statusz digest of the cluster registry.
type clusterStats struct {
	Forwards     uint64 `json:"forwards"`
	ForwardFails uint64 `json:"forward_fails"`
	Retries      uint64 `json:"forward_retries"`
	Hedges       uint64 `json:"hedges"`
	HedgeWins    uint64 `json:"hedge_wins"`
	Failovers    uint64 `json:"failovers"`
	ShardShed    uint64 `json:"shard_shed"`
}

type ckptInfo struct {
	Dir       string `json:"dir"`
	Loaded    int    `json:"loaded"`
	Discarded int    `json:"discarded"`
	Written   int    `json:"written"`
	// Verified counts re-executions whose record matched the existing
	// one byte-for-byte; Divergent counts conflicts (must stay 0 — a
	// divergence is a determinism bug, and the chaos CI asserts it).
	Verified  int `json:"verified"`
	Divergent int `json:"divergent"`
}

func (s *Server) status() statusInfo {
	// Admission state is pulled fresh at snapshot time so /statusz and
	// /debug/vars reflect this instant, not the last mutation.
	s.m.touch(func() { s.m.quotaClients.Set(int64(s.quota.clients())) })
	st := statusInfo{
		Draining:   s.draining.Load(),
		QueueDepth: s.q.depth(),
		Metrics:    s.m.snapshot(),
		Workers:    s.cfg.Workers,
		QueueCap:   s.cfg.QueueDepth,
		ShedPoint:  s.cfg.ShedPoint,
	}
	if s.cluster != nil {
		st.Cluster = s.cluster.Self()
		cm := s.cluster.Metrics().Counters
		st.ClusterStats = &clusterStats{
			Forwards:     cm["cluster.forwards"],
			ForwardFails: cm["cluster.forward_fails"],
			Retries:      cm["cluster.forward_retries"],
			Hedges:       cm["cluster.hedges"],
			HedgeWins:    cm["cluster.hedge_wins"],
			Failovers:    cm["cluster.failovers"],
			ShardShed:    cm["cluster.shard_shed"],
		}
	}
	if s.pool != nil {
		st.Quarantined = s.pool.quarantineCount()
	}
	if s.store != nil {
		loaded, discarded, written := s.store.Stats()
		verified, divergent := s.store.Conflicts()
		st.Checkpoints = &ckptInfo{Dir: s.store.Dir(), Loaded: loaded, Discarded: discarded,
			Written: written, Verified: verified, Divergent: divergent}
	}
	return st
}

// errIsCancel reports whether err is (or wraps) a context ending.
func errIsCancel(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}
