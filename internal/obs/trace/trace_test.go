package otrace

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilSafety(t *testing.T) {
	var tr *Tracer
	sp := tr.Start("root", KindServer, "", "")
	if sp != nil {
		t.Fatalf("nil tracer Start = %v, want nil", sp)
	}
	// Every method on the nil span must be callable.
	c := sp.Child("child", KindInternal)
	if c != nil {
		t.Fatalf("nil span Child = %v, want nil", c)
	}
	sp.SetAttr("k", "v")
	sp.SetAttrInt("n", 1)
	sp.Fail(errors.New("boom"))
	sp.Inject(http.Header{})
	sp.Record("graft", KindInternal, time.Now(), time.Now())
	sp.End()
	if got := sp.TraceID(); got != "" {
		t.Fatalf("nil span TraceID = %q", got)
	}
	if got := sp.ID(); got != "" {
		t.Fatalf("nil span ID = %q", got)
	}
	if got := tr.Peer(); got != "" {
		t.Fatalf("nil tracer Peer = %q", got)
	}
	ctx := ContextWith(context.Background(), nil)
	if got := FromContext(ctx); got != nil {
		t.Fatalf("FromContext(plain ctx) = %v, want nil", got)
	}
}

func TestDeterministicIDs(t *testing.T) {
	mk := func() []string {
		tr := New(Config{Seed: 7, Peer: "a:1"})
		var ids []string
		for i := 0; i < 4; i++ {
			sp := tr.Start("root", KindServer, "", "")
			ids = append(ids, sp.TraceID(), sp.ID())
			ids = append(ids, sp.Child("c", KindInternal).ID())
			sp.End()
		}
		return ids
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("id stream diverged at %d: %q vs %q", i, a[i], b[i])
		}
		if !validID(a[i]) {
			t.Fatalf("malformed id %q", a[i])
		}
	}
	// Different seeds or peers shift the trace-ID stream.
	other := New(Config{Seed: 8, Peer: "a:1"}).Start("root", KindServer, "", "")
	if other.TraceID() == a[0] {
		t.Fatalf("seed 7 and 8 minted the same first trace ID %q", a[0])
	}
	peer := New(Config{Seed: 7, Peer: "b:2"}).Start("root", KindServer, "", "")
	if peer.TraceID() == a[0] {
		t.Fatalf("peers a:1 and b:2 minted the same first trace ID %q", a[0])
	}
}

// TestRecordGraftsFinishedChild: Record adds a child with the reported
// interval and attributes, parented under the span it was called on.
func TestRecordGraftsFinishedChild(t *testing.T) {
	rec := NewRecorder(4)
	tr := New(Config{Seed: 1, Peer: "a:1", Recorder: rec})
	root := tr.Start("root", KindServer, "", "")
	start := time.Now()
	root.Record("worker.run", KindInternal, start, start.Add(1500*time.Microsecond),
		Attr{K: "run_us", V: "1400"})
	root.End()
	got := rec.Traces(Filter{})
	if len(got) != 1 || len(got[0].Spans) != 2 {
		t.Fatalf("recorded %+v, want one trace of two spans", got)
	}
	var run *SpanRec
	for i := range got[0].Spans {
		if got[0].Spans[i].Name == "worker.run" {
			run = &got[0].Spans[i]
		}
	}
	if run == nil || run.Parent != root.ID() {
		t.Fatalf("worker.run span %+v, want a child of %s", run, root.ID())
	}
	if run.StartUS != start.UnixMicro() || run.DurUS != 1500 || run.Status != StatusOK {
		t.Fatalf("worker.run start=%d dur=%d status=%s, want start=%d dur=1500 status=ok",
			run.StartUS, run.DurUS, run.Status, start.UnixMicro())
	}
	if len(run.Attrs) != 1 || run.Attrs[0] != (Attr{K: "run_us", V: "1400"}) {
		t.Fatalf("worker.run attrs = %v", run.Attrs)
	}
}

func TestSpanTreeAndRecorder(t *testing.T) {
	rec := NewRecorder(4)
	var started, dropped int
	tr := New(Config{Seed: 1, Peer: "self:1", Recorder: rec, Hooks: Hooks{
		SpanStarted: func() { started++ },
		SpanDropped: func() { dropped++ },
	}})

	root := tr.Start("serve.run", KindServer, "", "")
	root.SetAttr("class", "interactive")
	child := root.Child("queue.wait", KindInternal)
	child.SetAttrInt("depth", 3)
	child.End()
	bad := root.Child("store.claim", KindInternal)
	bad.Fail(errors.New("claim lost"))
	bad.End()
	root.End()

	if started != 3 || dropped != 0 {
		t.Fatalf("hooks: started=%d dropped=%d, want 3,0", started, dropped)
	}
	got := rec.Traces(Filter{})
	if len(got) != 1 {
		t.Fatalf("recorder has %d traces, want 1", len(got))
	}
	trace := got[0]
	if trace.Trace != root.TraceID() || trace.Peer != "self:1" || trace.Root != "serve.run" || trace.Status != StatusOK {
		t.Fatalf("bad trace header: %+v", trace)
	}
	if len(trace.Spans) != 3 {
		t.Fatalf("trace has %d spans, want 3", len(trace.Spans))
	}
	byName := map[string]SpanRec{}
	for _, s := range trace.Spans {
		byName[s.Name] = s
		if s.Trace != trace.Trace {
			t.Fatalf("span %s carries trace %q, want %q", s.Name, s.Trace, trace.Trace)
		}
	}
	if byName["queue.wait"].Parent != byName["serve.run"].ID {
		t.Fatalf("queue.wait parent = %q, want root %q", byName["queue.wait"].Parent, byName["serve.run"].ID)
	}
	if byName["store.claim"].Status != StatusError || byName["store.claim"].Err != "claim lost" {
		t.Fatalf("failed span = %+v", byName["store.claim"])
	}
	if byName["serve.run"].Parent != "" {
		t.Fatalf("originated root has parent %q", byName["serve.run"].Parent)
	}
	if len(byName["queue.wait"].Attrs) != 1 || byName["queue.wait"].Attrs[0] != (Attr{K: "depth", V: "3"}) {
		t.Fatalf("queue.wait attrs = %+v", byName["queue.wait"].Attrs)
	}

	// A span ending after the root published is dropped and counted.
	root2 := tr.Start("serve.run", KindServer, "", "")
	late := root2.Child("cluster.hedge", KindClient)
	root2.End()
	late.End()
	if dropped != 1 {
		t.Fatalf("late-ending span: dropped=%d, want 1", dropped)
	}
	if got := rec.Traces(Filter{Trace: root2.TraceID()}); len(got) != 1 || len(got[0].Spans) != 1 {
		t.Fatalf("late span leaked into published trace: %+v", got)
	}
	// End is idempotent.
	root2.End()
}

func TestSpanCap(t *testing.T) {
	var dropped int
	tr := New(Config{Seed: 1, Peer: "p", MaxSpans: 3, Hooks: Hooks{SpanDropped: func() { dropped++ }}})
	root := tr.Start("root", KindServer, "", "")
	a := root.Child("a", KindInternal) // 2nd span
	b := root.Child("b", KindInternal) // 3rd span: at cap
	c := root.Child("c", KindInternal) // over cap
	if a == nil || b == nil {
		t.Fatalf("children under cap were dropped")
	}
	if c != nil {
		t.Fatalf("child over cap was not dropped")
	}
	if dropped != 1 {
		t.Fatalf("dropped=%d, want 1", dropped)
	}
	c.SetAttr("k", "v") // must not panic
	c.End()
}

func TestConcurrentChildren(t *testing.T) {
	rec := NewRecorder(2)
	tr := New(Config{Seed: 9, Peer: "p", Recorder: rec})
	root := tr.Start("root", KindServer, "", "")
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sp := root.Child("leg", KindClient)
			sp.SetAttrInt("leg", int64(i))
			sp.End()
		}(i)
	}
	wg.Wait()
	root.End()
	got := rec.Traces(Filter{})
	if len(got) != 1 || len(got[0].Spans) != 17 {
		t.Fatalf("concurrent trace: %d traces, %d spans", len(got), len(got[0].Spans))
	}
	ids := map[string]bool{}
	for _, s := range got[0].Spans {
		if ids[s.ID] {
			t.Fatalf("duplicate span id %q", s.ID)
		}
		ids[s.ID] = true
	}
}

func TestRecorderEvictionAndFilter(t *testing.T) {
	rec := NewRecorder(2)
	var evicted int
	tr := New(Config{Seed: 3, Peer: "p", Recorder: rec, Hooks: Hooks{Evicted: func() { evicted++ }}})

	slow := tr.Start("slow", KindServer, "", "")
	time.Sleep(2 * time.Millisecond)
	slow.End()
	bad := tr.Start("bad", KindServer, "", "")
	bad.Fail(errors.New("x"))
	bad.End()
	third := tr.Start("third", KindServer, "", "")
	third.End() // evicts "slow"

	if evicted != 1 || rec.Evicted() != 1 || rec.Total() != 3 {
		t.Fatalf("eviction: hook=%d recorder=%d total=%d", evicted, rec.Evicted(), rec.Total())
	}
	all := rec.Traces(Filter{})
	if len(all) != 2 || all[0].Root != "third" || all[1].Root != "bad" {
		t.Fatalf("newest-first order wrong: %+v", all)
	}
	if got := rec.Traces(Filter{Status: StatusError}); len(got) != 1 || got[0].Root != "bad" {
		t.Fatalf("status filter: %+v", got)
	}
	if got := rec.Traces(Filter{Limit: 1}); len(got) != 1 || got[0].Root != "third" {
		t.Fatalf("limit filter: %+v", got)
	}
	if got := rec.Traces(Filter{MinDur: time.Hour}); len(got) != 0 {
		t.Fatalf("min-dur filter matched: %+v", got)
	}
	if got := rec.Traces(Filter{Trace: bad.TraceID()}); len(got) != 1 || got[0].Root != "bad" {
		t.Fatalf("trace filter: %+v", got)
	}
}

func TestInjectExtract(t *testing.T) {
	tr := New(Config{Seed: 2, Peer: "edge:1"})
	root := tr.Start("serve.run", KindServer, "", "")
	attempt := root.Child("cluster.attempt", KindClient)
	h := http.Header{}
	attempt.Inject(h)
	if h.Get(TraceHeader) != root.TraceID() || h.Get(ParentHeader) != attempt.ID() {
		t.Fatalf("injected headers %v", h)
	}

	traceID, parentID, err := Extract(h)
	if err != nil || traceID != root.TraceID() || parentID != attempt.ID() {
		t.Fatalf("Extract = %q,%q,%v", traceID, parentID, err)
	}
	// The downstream node continues the trace under the attempt span.
	down := New(Config{Seed: 2, Peer: "owner:2"})
	remote := down.Start("serve.run", KindServer, traceID, parentID)
	if remote.TraceID() != root.TraceID() {
		t.Fatalf("remote root trace = %q, want %q", remote.TraceID(), root.TraceID())
	}
	if remote.ID() == attempt.ID() || remote.ID() == root.ID() {
		t.Fatalf("remote span ID %q collides with upstream", remote.ID())
	}
	attempt.End()
	root.End()
	remote.End()

	// Absent headers: originate.
	if tid, pid, err := Extract(http.Header{}); tid != "" || pid != "" || err != nil {
		t.Fatalf("empty Extract = %q,%q,%v", tid, pid, err)
	}
	// Malformed headers: error.
	for _, bad := range [][2]string{
		{"nothex", ""},
		{"ABCDEF0123456789", ""}, // uppercase
		{"0123456789abcde", ""},  // 15 chars
		{root.TraceID(), "zz"},
		{"", attempt.ID()}, // parent without trace
	} {
		h := http.Header{}
		if bad[0] != "" {
			h.Set(TraceHeader, bad[0])
		}
		if bad[1] != "" {
			h.Set(ParentHeader, bad[1])
		}
		if _, _, err := Extract(h); err == nil {
			t.Fatalf("Extract(%v) accepted malformed headers", h)
		}
	}
}

func TestContextPropagation(t *testing.T) {
	tr := New(Config{Seed: 5, Peer: "p"})
	root := tr.Start("root", KindServer, "", "")
	ctx := ContextWith(context.Background(), root)
	if got := FromContext(ctx); got != root {
		t.Fatalf("FromContext = %v, want root", got)
	}
	// A nil child (cap hit, tracing off) must not mask the enclosing span.
	ctx2 := ContextWith(ctx, nil)
	if got := FromContext(ctx2); got != root {
		t.Fatalf("nil-span ContextWith masked the root: %v", got)
	}
	root.End()
}

func TestWriteJSONL(t *testing.T) {
	rec := NewRecorder(8)
	tr := New(Config{Seed: 4, Peer: "n1:9", Recorder: rec})
	for i := 0; i < 3; i++ {
		root := tr.Start("serve.run", KindServer, "", "")
		root.Child("queue.wait", KindInternal).End()
		root.End()
	}
	path := filepath.Join(t.TempDir(), "traces.jsonl")
	if err := rec.WriteJSONL(path, "n1:9"); err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 4 {
		t.Fatalf("export has %d lines, want 4 (header + 3 traces)", len(lines))
	}
	var hdr struct {
		Kind     string `json:"kind"`
		V        int    `json:"v"`
		Peer     string `json:"peer"`
		Total    uint64 `json:"total"`
		Retained int    `json:"retained"`
		Evicted  uint64 `json:"evicted"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &hdr); err != nil {
		t.Fatal(err)
	}
	if hdr.Kind != "otrace-header" || hdr.V != 1 || hdr.Peer != "n1:9" || hdr.Total != 3 || hdr.Retained != 3 || hdr.Evicted != 0 {
		t.Fatalf("header = %+v", hdr)
	}
	for _, line := range lines[1:] {
		var rec struct {
			Kind  string    `json:"kind"`
			Trace string    `json:"trace"`
			Spans []SpanRec `json:"spans"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("trace line %q: %v", line, err)
		}
		if rec.Kind != "trace" || !validID(rec.Trace) || len(rec.Spans) != 2 {
			t.Fatalf("trace line = %+v", rec)
		}
	}
	if err := (*Recorder)(nil).WriteJSONL(path, "x"); err == nil {
		t.Fatalf("nil recorder export succeeded")
	}
}

// BenchmarkTraceOverhead is the CI trace-overhead guard: the disabled
// (nil-tracer) path must stay within a few ns — one branch per call —
// and the enabled path must stay cheap enough to run always-on.
func BenchmarkTraceOverhead(b *testing.B) {
	b.Run("disabled", func(b *testing.B) {
		var tr *Tracer
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sp := tr.Start("serve.run", KindServer, "", "")
			c := sp.Child("queue.wait", KindInternal)
			c.SetAttrInt("depth", 1)
			c.End()
			sp.End()
		}
	})
	b.Run("enabled", func(b *testing.B) {
		rec := NewRecorder(64)
		tr := New(Config{Seed: 1, Peer: "bench", Recorder: rec})
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sp := tr.Start("serve.run", KindServer, "", "")
			c := sp.Child("queue.wait", KindInternal)
			c.SetAttrInt("depth", 1)
			c.End()
			sp.End()
		}
	})
}
