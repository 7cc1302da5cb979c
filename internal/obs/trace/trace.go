// Package otrace is the distributed request tracer for bvsimd: a
// zero-dependency Dapper-style span model over the service layers
// (admission, workers, checkpoint store, cluster hops), a bounded
// flight recorder of completed traces, and HTTP header propagation so
// one forwarded request assembles into one tree spanning peers.
//
// The package name is otrace ("observability trace") because the repo
// already has internal/trace — the simulator's memory-trace reader —
// and the two must never be confused: this package records what the
// SERVICE did to a request, never what the simulated hardware did.
//
// Three contracts shape the design:
//
//   - Disabled tracing costs one nil check. Every method on a nil
//     *Tracer or nil *Span is a no-op, the same contract as the obs
//     package's nil counters, so instrumented code calls
//     span.Child(...)/span.End() unconditionally.
//
//   - IDs are deterministic. Trace IDs are drawn from a splitmix64
//     stream seeded by the host's configured seed, and span IDs from a
//     per-trace stream seeded by the trace ID and the recording peer,
//     so a chaos-CI run that replays the same request order sees the
//     same IDs — a trace named in a failing log can be found again.
//
//   - Tracing never touches simulated results. Spans carry wall-clock
//     timestamps (this package lives in the obs segment, inside the
//     determinism analyzer's wall-clock allowlist) and exist entirely
//     in the service layer; nothing here reaches sim.Config, the
//     checkpoint record encoding, or a result table. Byte-identity
//     with tracing on or off is asserted by the cluster chaos tests.
//
// Propagation: a forwarding node injects TraceHeader (the trace ID)
// and ParentHeader (the span ID of its forward attempt) next to the
// existing X-BV-Forwarded one-hop header; the receiving node starts
// its own node-local root span under that parent and records into its
// own flight recorder. Assembling the cross-peer tree is a merge by
// trace ID over the peers' exported JSONL — the same collection model
// as Dapper, where no node ever holds another node's spans.
package otrace

import (
	"context"
	"fmt"
	"net/http"
	"slices"
	"sort"
	"sync"
	"time"
)

const (
	// TraceHeader carries the 16-hex trace ID across a cluster hop.
	TraceHeader = "X-BV-Trace"
	// ParentHeader carries the forwarding span's 16-hex ID: the span
	// the receiving node's root span is parented under.
	ParentHeader = "X-BV-Parent"
)

// Span kinds, following the usual RPC convention: a "server" span is a
// request being served, a "client" span is a call to another process
// (a peer, a worker), and "internal" is everything in between.
const (
	KindServer   = "server"
	KindClient   = "client"
	KindInternal = "internal"
)

// Statuses a finished span can carry.
const (
	StatusOK    = "ok"
	StatusError = "error"
)

// Attr is one structured key/value attribute. A slice keeps attrs in
// recording order, so the JSON form is stable without map sorting.
type Attr struct {
	K string `json:"k"`
	V string `json:"v"`
}

// SpanRec is the serialized form of one finished span — the stable
// JSONL schema unit (schema v1, see DESIGN.md §16). Every span
// self-describes its trace and peer so flattened multi-node exports
// can be processed span-by-span.
type SpanRec struct {
	Trace   string `json:"trace"`
	ID      string `json:"id"`
	Parent  string `json:"parent,omitempty"`
	Name    string `json:"name"`
	Kind    string `json:"kind"`
	Peer    string `json:"peer"`
	StartUS int64  `json:"start_us"`
	DurUS   int64  `json:"dur_us"`
	Status  string `json:"status"`
	Err     string `json:"error,omitempty"`
	Attrs   []Attr `json:"attrs,omitempty"`
}

// Hooks surface tracer-internal events to the host's metrics registry.
// The tracer deliberately does not import the obs package: the host
// (serve, cluster) owns registration — and therefore the statereconcile
// obligation to assert the counters in tests — while the tracer only
// fires the hooks. Any hook may be nil.
type Hooks struct {
	// SpanStarted fires for every span successfully begun (roots and
	// children).
	SpanStarted func()
	// SpanDropped fires for a span that could not be recorded: the
	// per-trace span cap was hit, or it ended after its trace was
	// already published (a losing hedge leg outliving the root).
	SpanDropped func()
	// Evicted fires when the flight recorder overwrites a retained
	// trace to make room.
	Evicted func()
}

// Config tunes a Tracer.
type Config struct {
	// Seed drives the trace-ID stream. Two nodes may share a seed;
	// trace IDs only need to be unique per originating node, and the
	// peer address is folded into the stream so shared seeds still
	// yield distinct IDs.
	Seed uint64
	// Peer is the advertised address stamped on every span this node
	// records.
	Peer string
	// MaxSpans caps the spans one trace may accumulate on this node;
	// extras are dropped (and counted). Default 512.
	MaxSpans int
	// Recorder receives completed traces. Nil means publish nowhere —
	// spans still propagate downstream, which lets a relay node stay
	// cheap while the executing node records.
	Recorder *Recorder
	// Hooks surface span/drop/evict events to the host.
	Hooks Hooks
}

// Tracer mints trace IDs and owns this node's span assembly. A nil
// tracer is the disabled path: Start returns a nil span and every
// downstream call no-ops.
type Tracer struct {
	cfg Config

	mu  sync.Mutex
	ids uint64 // splitmix64 state for trace IDs
}

// New builds a tracer. Returns nil when cap < 0 conventions are the
// host's business — pass nil instead of a tracer to disable tracing.
func New(cfg Config) *Tracer {
	if cfg.MaxSpans <= 0 {
		cfg.MaxSpans = 512
	}
	return &Tracer{cfg: cfg, ids: splitmix64Seed(cfg.Seed) ^ fnv64(cfg.Peer)}
}

// Peer reports the address stamped on this tracer's spans.
func (t *Tracer) Peer() string {
	if t == nil {
		return ""
	}
	return t.cfg.Peer
}

// Start begins a node-local root span. traceID and parentID come from
// the propagation headers (Extract); both empty means this node
// originates the trace and mints a fresh ID. The returned span's End
// publishes the whole node-local assembly to the recorder.
func (t *Tracer) Start(name, kind, traceID, parentID string) *Span {
	if t == nil {
		return nil
	}
	if traceID == "" {
		t.mu.Lock()
		traceID = fmt.Sprintf("%016x", splitmix64(&t.ids))
		t.mu.Unlock()
	}
	a := &assembly{
		tracer:   t,
		trace:    traceID,
		maxSpans: t.cfg.MaxSpans,
		spanIDs:  fnv64(traceID) ^ fnv64(t.cfg.Peer) ^ spanIDSalt,
	}
	root := &Span{
		a:      a,
		id:     a.nextSpanID(),
		parent: parentID,
		name:   name,
		kind:   kind,
		start:  time.Now(),
		root:   true,
	}
	a.started = 1
	t.hook(t.cfg.Hooks.SpanStarted)
	return root
}

func (t *Tracer) hook(f func()) {
	if t != nil && f != nil {
		f()
	}
}

// spanIDSalt separates the span-ID stream from the trace-ID stream so
// a trace never contains a span whose ID collides with its own.
const spanIDSalt = 0x9e3779b97f4a7c15

// assembly collects one trace's node-local spans until the root ends.
type assembly struct {
	tracer *Tracer
	trace  string

	mu       sync.Mutex
	spanIDs  uint64 // splitmix64 state for span IDs
	spans    []SpanRec
	maxSpans int
	started  int // spans begun (root included)
	done     bool
}

func (a *assembly) nextSpanID() string {
	// Callers hold a.mu except the root path in Start, where the
	// assembly is not yet shared.
	return fmt.Sprintf("%016x", splitmix64(&a.spanIDs))
}

// Span is one timed operation in a trace. All mutators are safe for
// concurrent use (hedge legs share a parent) and all are no-ops on a
// nil span.
type Span struct {
	a      *assembly
	id     string
	parent string
	name   string
	kind   string
	start  time.Time
	root   bool

	// Guarded by a.mu.
	attrs  []Attr
	status string
	errMsg string
	ended  bool
}

// TraceID reports the span's trace ID ("" on a nil span).
func (sp *Span) TraceID() string {
	if sp == nil {
		return ""
	}
	return sp.a.trace
}

// ID reports the span's own ID ("" on a nil span).
func (sp *Span) ID() string {
	if sp == nil {
		return ""
	}
	return sp.id
}

// Child begins a sub-span. A child begun past the per-trace span cap,
// or after the trace has been published, is dropped: the returned nil
// span absorbs all calls.
func (sp *Span) Child(name, kind string) *Span {
	if sp == nil {
		return nil
	}
	a := sp.a
	a.mu.Lock()
	if a.done || a.started >= a.maxSpans {
		a.mu.Unlock()
		a.tracer.hook(a.tracer.cfg.Hooks.SpanDropped)
		return nil
	}
	a.started++
	id := a.nextSpanID()
	a.mu.Unlock()
	a.tracer.hook(a.tracer.cfg.Hooks.SpanStarted)
	return &Span{a: a, id: id, parent: sp.id, name: name, kind: kind, start: time.Now()}
}

// SetAttr records one attribute. Later values for the same key are
// appended, not replaced — a span's attrs are a log, not a map.
func (sp *Span) SetAttr(k, v string) {
	if sp == nil {
		return
	}
	sp.a.mu.Lock()
	if !sp.ended {
		sp.attrs = append(sp.attrs, Attr{K: k, V: v})
	}
	sp.a.mu.Unlock()
}

// SetAttrInt records one integer attribute.
func (sp *Span) SetAttrInt(k string, v int64) {
	sp.SetAttr(k, fmt.Sprintf("%d", v))
}

// Fail marks the span errored. A nil err is ignored.
func (sp *Span) Fail(err error) {
	if sp == nil || err == nil {
		return
	}
	sp.a.mu.Lock()
	if !sp.ended {
		sp.status = StatusError
		sp.errMsg = err.Error()
	}
	sp.a.mu.Unlock()
}

// Record adds a finished child span over [start, end] with the given
// attributes: work timed by a process with no tracer of its own (a
// worker reporting its run), grafted into the tree after the fact.
func (sp *Span) Record(name, kind string, start, end time.Time, attrs ...Attr) {
	c := sp.Child(name, kind)
	if c == nil {
		return
	}
	c.start = start // c is not shared yet
	c.attrs = attrs
	c.endAt(end)
}

// End finishes the span. Ending the root span publishes every span
// this node recorded for the trace to the flight recorder; spans still
// open at that point (a hedge leg that lost) are dropped when they
// eventually end. End is idempotent.
func (sp *Span) End() {
	if sp == nil {
		return
	}
	sp.endAt(time.Now())
}

func (sp *Span) endAt(end time.Time) {
	a := sp.a
	a.mu.Lock()
	if sp.ended {
		a.mu.Unlock()
		return
	}
	sp.ended = true
	if a.done {
		a.mu.Unlock()
		a.tracer.hook(a.tracer.cfg.Hooks.SpanDropped)
		return
	}
	status := sp.status
	if status == "" {
		status = StatusOK
	}
	rec := SpanRec{
		Trace:   a.trace,
		ID:      sp.id,
		Parent:  sp.parent,
		Name:    sp.name,
		Kind:    sp.kind,
		Peer:    a.tracer.cfg.Peer,
		StartUS: sp.start.UnixMicro(),
		DurUS:   end.Sub(sp.start).Microseconds(),
		Status:  status,
		Err:     sp.errMsg,
		Attrs:   sp.attrs,
	}
	a.spans = append(a.spans, rec)
	var publish *Rec
	if sp.root {
		a.done = true
		// Stable order for export and assertion: by start time, ID as
		// the tiebreak (timestamps have µs granularity).
		sort.Slice(a.spans, func(i, j int) bool {
			if a.spans[i].StartUS != a.spans[j].StartUS {
				return a.spans[i].StartUS < a.spans[j].StartUS
			}
			return a.spans[i].ID < a.spans[j].ID
		})
		publish = &Rec{
			Trace:   a.trace,
			Peer:    a.tracer.cfg.Peer,
			Root:    sp.name,
			Status:  status,
			StartUS: rec.StartUS,
			DurUS:   rec.DurUS,
			// The ring keeps a right-sized copy: the assembly's slice
			// grows by doubling, so one span past a power of two would
			// otherwise keep twice the records for every retained trace.
			Spans: slices.Clone(a.spans),
		}
	}
	a.mu.Unlock()
	if publish != nil && a.tracer.cfg.Recorder != nil {
		if evicted := a.tracer.cfg.Recorder.add(*publish); evicted {
			a.tracer.hook(a.tracer.cfg.Hooks.Evicted)
		}
	}
}

// ctxKey is the context key for the active span.
type ctxKey struct{}

// ContextWith returns ctx carrying sp. A nil span returns ctx
// unchanged, so downstream FromContext still finds an enclosing span
// if one exists.
func ContextWith(ctx context.Context, sp *Span) context.Context {
	if sp == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, sp)
}

// FromContext returns the active span, or nil (the no-op span) when
// ctx carries none.
func FromContext(ctx context.Context) *Span {
	sp, _ := ctx.Value(ctxKey{}).(*Span)
	return sp
}

// Inject stamps the propagation headers for a downstream hop: the
// trace ID and sp itself as the parent. No-op on a nil span.
func (sp *Span) Inject(h http.Header) {
	if sp == nil || h == nil {
		return
	}
	h.Set(TraceHeader, sp.a.trace)
	h.Set(ParentHeader, sp.id)
}

// Extract reads the propagation headers. Absent headers return empty
// IDs and no error (the request originates a trace here); malformed
// ones return an error so the host can count the propagation failure
// and start fresh.
func Extract(h http.Header) (traceID, parentID string, err error) {
	traceID = h.Get(TraceHeader)
	parentID = h.Get(ParentHeader)
	if traceID == "" && parentID == "" {
		return "", "", nil
	}
	if !validID(traceID) {
		return "", "", fmt.Errorf("otrace: malformed %s %q", TraceHeader, traceID)
	}
	if parentID != "" && !validID(parentID) {
		return "", "", fmt.Errorf("otrace: malformed %s %q", ParentHeader, parentID)
	}
	return traceID, parentID, nil
}

// validID reports whether s is exactly 16 lowercase hex characters.
func validID(s string) bool {
	if len(s) != 16 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// FormatID renders a raw uint64 as a header-ready 16-hex ID — the one
// helper clients (cmd/loadgen) use to originate trace IDs themselves.
func FormatID(v uint64) string { return fmt.Sprintf("%016x", v) }

// splitmix64Seed expands a small seed into a full-entropy initial
// state (the standard splitmix64 finalizer applied once).
func splitmix64Seed(seed uint64) uint64 {
	s := seed + 0x9e3779b97f4a7c15
	return mix64(s)
}

// splitmix64 advances the state and returns the next value.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	return mix64(*state)
}

func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// fnv64 is FNV-1a over s — the same family the cluster ring uses for
// member placement, reused here to fold strings into ID streams.
func fnv64(s string) uint64 {
	h := uint64(0xcbf29ce484222325)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 0x100000001b3
	}
	return h
}
