package serve

// Request-tracing tests: the flight recorder end to end. A request's
// span tree is recorded with intact parentage, the /debug/requests
// endpoint serves and filters it, the serve.request_ms histogram
// carries trace-ID exemplars, a forwarded request produces one trace
// spanning both peers, and — the acceptance case — a kill-induced
// failover yields a single tree holding the original (failed) attempt,
// the failover hop, and the checkpoint-store handoff, while the
// persisted records stay byte-identical to clean runs with tracing on
// and off.

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"strconv"
	"testing"
	"time"

	"basevictim/internal/cluster"
	otrace "basevictim/internal/obs/trace"
	"basevictim/internal/sim"
)

// debugRequestsDoc mirrors handleDebugRequests's response shape.
type debugRequestsDoc struct {
	Enabled bool         `json:"enabled"`
	Peer    string       `json:"peer"`
	Total   uint64       `json:"total"`
	Evicted uint64       `json:"evicted"`
	Traces  []otrace.Rec `json:"traces"`
}

// postTraced submits one /v1/run with a preset X-BV-Trace header.
func postTraced(t *testing.T, addr, traceID string, body any) *http.Response {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, "http://"+addr+"/v1/run", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(otrace.TraceHeader, traceID)
	res, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	return res
}

// waitTrace polls a node's /debug/requests until the trace appears
// (the root span publishes in a handler defer, which can land just
// after the client reads the response).
func waitTrace(t *testing.T, addr, traceID string) otrace.Rec {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, body := getJSON(t, "http://"+addr+"/debug/requests?trace="+traceID)
		var doc debugRequestsDoc
		if err := json.Unmarshal(body, &doc); err != nil {
			t.Fatalf("bad /debug/requests document: %v\n%s", err, body)
		}
		if len(doc.Traces) == 1 {
			return doc.Traces[0]
		}
		if time.Now().After(deadline) {
			t.Fatalf("trace %s never appeared on %s", traceID, addr)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// spanByName returns the first span with the given name, or nil.
func spanByName(rec otrace.Rec, name string) *otrace.SpanRec {
	for i := range rec.Spans {
		if rec.Spans[i].Name == name {
			return &rec.Spans[i]
		}
	}
	return nil
}

func attrOf(sp *otrace.SpanRec, key string) string {
	if sp == nil {
		return ""
	}
	for _, a := range sp.Attrs {
		if a.K == key {
			return a.V
		}
	}
	return ""
}

// checkParentage asserts the merged span set forms exactly one tree:
// one root (empty parent), every other span's parent present, all IDs
// unique.
func checkParentage(t *testing.T, spans []otrace.SpanRec) {
	t.Helper()
	ids := make(map[string]bool, len(spans))
	for _, sp := range spans {
		if ids[sp.ID] {
			t.Errorf("duplicate span ID %s (%s)", sp.ID, sp.Name)
		}
		ids[sp.ID] = true
	}
	roots := 0
	for _, sp := range spans {
		if sp.Parent == "" {
			roots++
			continue
		}
		if !ids[sp.Parent] {
			t.Errorf("span %s (%s) has unresolved parent %s", sp.ID, sp.Name, sp.Parent)
		}
	}
	if roots != 1 {
		t.Errorf("merged trace has %d roots, want exactly 1", roots)
	}
}

// TestRequestTraceRecorded: one traced request on a single node yields
// a complete tree (root, quota, queue wait, execution), moves the span
// counters, and lands its trace ID as a request-latency exemplar.
func TestRequestTraceRecorded(t *testing.T) {
	s := startServer(t, Config{InProcess: true})
	const id = "00000000000000ab"
	res := postTraced(t, s.Addr(), id, runRequest{Trace: "mcf.p1", Instructions: 20_000})
	if res.StatusCode != http.StatusOK {
		t.Fatalf("traced run: status %d", res.StatusCode)
	}
	rec := waitTrace(t, s.Addr(), id)

	if rec.Trace != id || rec.Root != "serve.run" || rec.Status != "ok" {
		t.Fatalf("trace record %+v, want trace=%s root=serve.run status=ok", rec, id)
	}
	checkParentage(t, rec.Spans)
	root := spanByName(rec, "serve.run")
	if root == nil || root.Parent != "" {
		t.Fatalf("no root serve.run span in %+v", rec.Spans)
	}
	if attrOf(root, "workload") != "mcf.p1" {
		t.Fatalf("root workload attr = %q, want mcf.p1", attrOf(root, "workload"))
	}
	for _, name := range []string{"serve.quota", "queue.wait", "serve.exec"} {
		sp := spanByName(rec, name)
		if sp == nil {
			t.Fatalf("span %s missing from %+v", name, rec.Spans)
		}
		if sp.Parent != root.ID {
			t.Errorf("span %s parent = %s, want the root %s", name, sp.Parent, root.ID)
		}
	}

	if n := counterValue(t, s, "trace.spans_started"); n < 4 {
		t.Fatalf("trace.spans_started = %d, want ≥4", n)
	}
	if n := counterValue(t, s, "trace.spans_dropped"); n != 0 {
		t.Fatalf("trace.spans_dropped = %d, want 0 (nothing hit the span cap)", n)
	}
	if n := counterValue(t, s, "trace.propagation_errors"); n != 0 {
		t.Fatalf("trace.propagation_errors = %d, want 0 (the header was valid)", n)
	}

	// The latency histogram observed the request and kept its trace ID
	// as the bucket exemplar.
	h, ok := s.m.snapshot().Histograms["serve.request_ms"]
	if !ok || h.Count < 1 {
		t.Fatalf("serve.request_ms histogram = %+v, want ≥1 observation", h)
	}
	found := false
	for _, ex := range h.Exemplars {
		if ex == id {
			found = true
		}
	}
	if !found {
		t.Fatalf("serve.request_ms exemplars %v do not name trace %s", h.Exemplars, id)
	}
}

// TestWorkerSpansSpawnThenReuse: a miss that starts a worker process
// carries worker.spawn and worker.run under its worker.attempt; the
// next miss, served by the same reused worker, carries worker.run
// alone, so the trace shows the spawn cost gone without subtraction.
func TestWorkerSpansSpawnThenReuse(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	cfg := Config{Workers: 1}
	fastPool(&cfg)
	s := startServer(t, cfg)
	for i, tc := range []struct {
		id    string
		spawn bool
	}{{"00000000000000c1", true}, {"00000000000000c2", false}} {
		res := postTraced(t, s.Addr(), tc.id, runRequest{Trace: "mcf.p1", Instructions: 20_000 + uint64(i)})
		if res.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d", i, res.StatusCode)
		}
		rec := waitTrace(t, s.Addr(), tc.id)
		checkParentage(t, rec.Spans)
		att := spanByName(rec, "worker.attempt")
		run := spanByName(rec, "worker.run")
		if att == nil || run == nil {
			t.Fatalf("request %d: worker.attempt or worker.run missing from %+v", i, rec.Spans)
		}
		if run.Parent != att.ID {
			t.Errorf("request %d: worker.run parent = %s, want worker.attempt %s", i, run.Parent, att.ID)
		}
		if us, err := strconv.ParseInt(attrOf(run, "run_us"), 10, 64); err != nil || us <= 0 || run.DurUS < us {
			t.Errorf("request %d: worker.run dur=%dus run_us=%q, want the reported simulation time inside the span",
				i, run.DurUS, attrOf(run, "run_us"))
		}
		spawn := spanByName(rec, "worker.spawn")
		switch {
		case tc.spawn && spawn == nil:
			t.Errorf("request %d started a worker but has no worker.spawn span", i)
		case tc.spawn && spawn.Parent != att.ID:
			t.Errorf("request %d: worker.spawn parent = %s, want worker.attempt %s", i, spawn.Parent, att.ID)
		case !tc.spawn && spawn != nil:
			t.Errorf("request %d reused a worker but carries a worker.spawn span %+v", i, spawn)
		}
	}
	if n := counterValue(t, s, "serve.worker_spawns"); n != 1 {
		t.Fatalf("serve.worker_spawns = %d, want 1", n)
	}
}

// TestMalformedTraceHeaderOriginatesFresh: a bad X-BV-Trace is counted
// and replaced, never adopted and never a request failure.
func TestMalformedTraceHeaderOriginatesFresh(t *testing.T) {
	s := startServer(t, Config{InProcess: true})
	res := postTraced(t, s.Addr(), "not-a-trace-id", runRequest{Trace: "mcf.p1", Instructions: 20_001})
	if res.StatusCode != http.StatusOK {
		t.Fatalf("run with bad trace header: status %d", res.StatusCode)
	}
	if n := counterValue(t, s, "trace.propagation_errors"); n != 1 {
		t.Fatalf("trace.propagation_errors = %d, want 1", n)
	}
	// The request still traced — under a fresh, valid ID.
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, body := getJSON(t, "http://"+s.Addr()+"/debug/requests")
		var doc debugRequestsDoc
		if err := json.Unmarshal(body, &doc); err != nil {
			t.Fatal(err)
		}
		if len(doc.Traces) > 0 {
			got := doc.Traces[0].Trace
			if got == "not-a-trace-id" || len(got) != 16 {
				t.Fatalf("recorded trace ID %q, want a fresh 16-hex ID", got)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("request with bad trace header was never recorded")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestDebugRequestsEndpoint: filters validate, the ring evicts at
// capacity (and counts it), and a tracing-disabled server says so.
func TestDebugRequestsEndpoint(t *testing.T) {
	s := startServer(t, Config{InProcess: true, TraceCapacity: 1})
	for i, id := range []string{"00000000000000a1", "00000000000000a2"} {
		res := postTraced(t, s.Addr(), id, runRequest{Trace: "mcf.p1", Instructions: uint64(21_000 + i)})
		if res.StatusCode != http.StatusOK {
			t.Fatalf("run %d: status %d", i, res.StatusCode)
		}
		waitTrace(t, s.Addr(), id)
	}
	_, body := getJSON(t, "http://"+s.Addr()+"/debug/requests")
	var doc debugRequestsDoc
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	if !doc.Enabled || doc.Total != 2 || doc.Evicted != 1 || len(doc.Traces) != 1 {
		t.Fatalf("recorder doc %+v, want enabled, total 2, evicted 1, 1 retained", doc)
	}
	if doc.Traces[0].Trace != "00000000000000a2" {
		t.Fatalf("retained trace %s, want the newest", doc.Traces[0].Trace)
	}
	if n := counterValue(t, s, "trace.recorder_evictions"); n != 1 {
		t.Fatalf("trace.recorder_evictions = %d, want 1", n)
	}

	for _, q := range []string{"min_ms=abc", "min_ms=-1", "n=0", "n=x"} {
		res, _ := getJSON(t, "http://"+s.Addr()+"/debug/requests?"+q)
		if res.StatusCode != http.StatusBadRequest {
			t.Errorf("GET /debug/requests?%s: status %d, want 400", q, res.StatusCode)
		}
	}
	if res, _ := getJSON(t, "http://"+s.Addr()+"/debug/requests?status=error"); res.StatusCode != http.StatusOK {
		t.Errorf("status filter: %d, want 200", res.StatusCode)
	}

	// Tracing off: the endpoint stays up and says disabled, and no span
	// ever starts.
	off := startServer(t, Config{InProcess: true, TraceCapacity: -1})
	if res := postTraced(t, off.Addr(), "00000000000000a3", runRequest{Trace: "mcf.p1", Instructions: 22_000}); res.StatusCode != http.StatusOK {
		t.Fatalf("untraced run: status %d", res.StatusCode)
	}
	_, body = getJSON(t, "http://"+off.Addr()+"/debug/requests")
	var offDoc struct {
		Enabled bool `json:"enabled"`
	}
	if err := json.Unmarshal(body, &offDoc); err != nil || offDoc.Enabled {
		t.Fatalf("disabled recorder doc %s (err %v), want enabled=false", body, err)
	}
	if n := counterValue(t, off, "trace.spans_started"); n != 0 {
		t.Fatalf("trace.spans_started = %d with tracing disabled, want 0", n)
	}
}

// TestForwardedTraceSpansPeers: a misrouted request produces ONE trace
// whose merged spans cover both peers — the owner's server span parents
// under the edge's forward attempt — and /statusz surfaces the
// forwarding digest including the hedge outcome.
func TestForwardedTraceSpansPeers(t *testing.T) {
	a, b := twoNodes(t, nil)
	ins := insOwnedBy(t, a, "mcf.p1", cluster.RouteForward)
	const id = "00000000000000cd"
	res := postTraced(t, a.Addr(), id, runRequest{Trace: "mcf.p1", Instructions: ins})
	if res.StatusCode != http.StatusOK {
		t.Fatalf("forwarded run: status %d", res.StatusCode)
	}
	if got := res.Header.Get("X-BV-Hops"); got != "1" {
		t.Fatalf("X-BV-Hops = %q, want \"1\" for a relayed answer", got)
	}

	edge := waitTrace(t, a.Addr(), id)
	owner := waitTrace(t, b.Addr(), id)
	merged := append(append([]otrace.SpanRec{}, edge.Spans...), owner.Spans...)
	checkParentage(t, merged)

	peers := make(map[string]bool)
	for _, sp := range merged {
		peers[sp.Peer] = true
	}
	if len(peers) < 2 {
		t.Fatalf("merged trace names %d peers (%v), want both", len(peers), peers)
	}
	attempt := spanByName(edge, "cluster.attempt")
	if attempt == nil {
		t.Fatalf("edge trace has no cluster.attempt span: %+v", edge.Spans)
	}
	remoteRoot := spanByName(owner, "serve.run")
	if remoteRoot == nil {
		t.Fatalf("owner trace has no serve.run span: %+v", owner.Spans)
	}
	if remoteRoot.Parent != attempt.ID {
		t.Fatalf("remote root parent = %s, want the edge attempt %s", remoteRoot.Parent, attempt.ID)
	}
	route := spanByName(edge, "cluster.route")
	if attrOf(route, "decision") != "forward" || attrOf(route, "served_by") != b.Addr() {
		t.Fatalf("route span attrs %+v, want decision=forward served_by=%s", route.Attrs, b.Addr())
	}

	// Satellite: /statusz on the edge surfaces the cluster forwarding
	// digest, hedge outcome included.
	_, body := getJSON(t, "http://"+a.Addr()+"/statusz")
	var st struct {
		ClusterStats *clusterStats `json:"cluster_stats"`
	}
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.ClusterStats == nil || st.ClusterStats.Forwards < 1 {
		t.Fatalf("statusz cluster_stats = %+v, want forwards ≥ 1", st.ClusterStats)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(body, &raw); err != nil {
		t.Fatal(err)
	}
	var csRaw map[string]json.RawMessage
	if err := json.Unmarshal(raw["cluster_stats"], &csRaw); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"hedges", "hedge_wins", "failovers", "forward_fails"} {
		if _, ok := csRaw[k]; !ok {
			t.Errorf("statusz cluster_stats lacks %q", k)
		}
	}
}

// TestFailoverTraceTree is the tracing acceptance test: a 3-node
// cluster whose detector is effectively frozen (so routing still
// targets a freshly killed owner), one kill, one request. The
// forwarder's first attempt fails against the dead owner, the retry
// lands on the failover target, and the merged recorders must show one
// tree: failed attempt, backoff, successful attempt, the remote
// execution parented under it, and the checkpoint-store handoff spans.
// The records the cluster persists must be byte-identical to clean
// single-host runs with tracing enabled AND disabled.
func TestFailoverTraceTree(t *testing.T) {
	addrs := reserveAddrs(t, 3)
	dir := t.TempDir()
	nodes := make([]*Server, 3)
	for i := range nodes {
		cfg := Config{
			Workers:    2,
			QueueDepth: 16,
			InProcess:  true,
			CacheDir:   dir,
			Seed:       uint64(30 + i),
			Cluster: cluster.Config{
				Self:  addrs[i],
				Peers: addrs,
				Seed:  uint64(i + 1),
				// Frozen detector: probes too slow to notice the kill, so
				// the ring keeps routing to the dead owner and the
				// forwarder's retry chain does the failing over.
				ProbeInterval: time.Hour,
				ProbeTimeout:  time.Second,
				BackoffBase:   2 * time.Millisecond,
				BackoffCap:    10 * time.Millisecond,
				HedgeMin:      5 * time.Second,
				HedgeMax:      5 * time.Second,
			},
		}
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Listen(context.Background(), addrs[i]); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Close)
		nodes[i] = s
	}

	// A key node 0 forwards with a ≥2-target chain: the owner plus a
	// failover candidate.
	var ins uint64
	var rt cluster.Route
	for try := uint64(20_000); try < 20_000+512; try++ {
		cfg := sim.Default()
		cfg.Instructions = try
		r := nodes[0].cluster.Route(cluster.Key("mcf.p1", cfg), false)
		if r.Kind == cluster.RouteForward && len(r.Targets) >= 2 {
			ins, rt = try, r
			break
		}
	}
	if ins == 0 {
		t.Fatal("no budget in range forwards from node 0 with a failover chain")
	}
	ownerIdx, nextIdx := -1, -1
	for i, a := range addrs {
		if a == rt.Targets[0] {
			ownerIdx = i
		}
		if a == rt.Targets[1] {
			nextIdx = i
		}
	}
	if ownerIdx < 0 || nextIdx < 0 {
		t.Fatalf("chain %v names unknown peers", rt.Targets)
	}
	t.Logf("killing owner %s; failover target %s", rt.Targets[0], rt.Targets[1])
	nodes[ownerIdx].Close()

	const id = "00000000000000ef"
	res := postTraced(t, nodes[0].Addr(), id, runRequest{Trace: "mcf.p1", Instructions: ins})
	if res.StatusCode != http.StatusOK {
		t.Fatalf("failover run: status %d", res.StatusCode)
	}
	if got := res.Header.Get("X-BV-Served-By"); got != rt.Targets[1] {
		t.Fatalf("X-BV-Served-By = %q, want the failover target %q", got, rt.Targets[1])
	}

	edge := waitTrace(t, nodes[0].Addr(), id)
	exec := waitTrace(t, nodes[nextIdx].Addr(), id)
	merged := append(append([]otrace.SpanRec{}, edge.Spans...), exec.Spans...)
	checkParentage(t, merged)

	// The original attempt against the killed owner failed; the retry
	// against the failover target answered. Both live in this one tree.
	var deadAttempt, okAttempt *otrace.SpanRec
	for i := range edge.Spans {
		sp := &edge.Spans[i]
		if sp.Name != "cluster.attempt" {
			continue
		}
		switch attrOf(sp, "target") {
		case rt.Targets[0]:
			if sp.Status == "error" {
				deadAttempt = sp
			}
		case rt.Targets[1]:
			if sp.Status == "ok" {
				okAttempt = sp
			}
		}
	}
	if deadAttempt == nil {
		t.Fatalf("no failed attempt span against the killed owner in %+v", edge.Spans)
	}
	if okAttempt == nil {
		t.Fatalf("no successful attempt span against the failover target in %+v", edge.Spans)
	}
	if spanByName(edge, "cluster.backoff") == nil {
		t.Errorf("no backoff span between the failed and retried attempts")
	}
	remoteRoot := spanByName(exec, "serve.run")
	if remoteRoot == nil || remoteRoot.Parent != okAttempt.ID {
		t.Fatalf("remote serve.run parent = %+v, want the successful attempt %s", remoteRoot, okAttempt.ID)
	}
	// The checkpoint-store handoff happened on the executor, inside the
	// trace: read miss, claim, write.
	for _, name := range []string{"store.read", "store.claim", "store.write"} {
		if spanByName(exec, name) == nil {
			t.Errorf("executor trace lacks %s span: %+v", name, exec.Spans)
		}
	}
	if attrOf(spanByName(exec, "store.claim"), "outcome") != "claimed" {
		t.Errorf("store.claim outcome = %q, want claimed (fresh key)",
			attrOf(spanByName(exec, "store.claim"), "outcome"))
	}

	// Byte-identity: the record the failed-over cluster persisted equals
	// what clean single-host runs produce — tracing enabled or disabled.
	for i := range nodes {
		nodes[i].Close()
	}
	want := readRecords(t, dir)
	if len(want) != 1 {
		t.Fatalf("cluster dir holds %d records, want 1", len(want))
	}
	for name, traceCap := range map[string]int{"enabled": 0, "disabled": -1} {
		cleanDir := t.TempDir()
		ref, err := New(Config{Workers: 2, QueueDepth: 16, InProcess: true,
			CacheDir: cleanDir, Seed: 99, TraceCapacity: traceCap})
		if err != nil {
			t.Fatal(err)
		}
		if err := ref.Listen(context.Background(), "127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		res, body := postJSON(t, "http://"+ref.Addr()+"/v1/run", runRequest{Trace: "mcf.p1", Instructions: ins})
		if res.StatusCode != http.StatusOK {
			t.Fatalf("clean run (tracing %s): %d %s", name, res.StatusCode, body)
		}
		ref.Close()
		got := readRecords(t, cleanDir)
		if len(got) != len(want) {
			t.Fatalf("tracing %s: %d records, cluster wrote %d", name, len(got), len(want))
		}
		for rec, wb := range want {
			if gb, ok := got[rec]; !ok || !bytes.Equal(gb, wb) {
				t.Errorf("tracing %s: record %s differs from the failed-over cluster's", name, rec)
			}
		}
	}
}

// TestTraceExport: ExportTraces writes the recorder as JSONL with the
// header line, and refuses when tracing is disabled.
func TestTraceExport(t *testing.T) {
	s := startServer(t, Config{InProcess: true})
	const id = "00000000000000ba"
	if res := postTraced(t, s.Addr(), id, runRequest{Trace: "mcf.p1", Instructions: 23_000}); res.StatusCode != http.StatusOK {
		t.Fatalf("run: status %d", res.StatusCode)
	}
	waitTrace(t, s.Addr(), id)

	path := t.TempDir() + "/traces.jsonl"
	if err := s.ExportTraces(path); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSpace(b), []byte("\n"))
	if len(lines) != 2 {
		t.Fatalf("export has %d lines, want header + 1 trace:\n%s", len(lines), b)
	}
	var hdr struct {
		Kind     string `json:"kind"`
		Peer     string `json:"peer"`
		Retained uint64 `json:"retained"`
	}
	if err := json.Unmarshal(lines[0], &hdr); err != nil {
		t.Fatal(err)
	}
	if hdr.Kind != "otrace-header" || hdr.Peer != s.Addr() || hdr.Retained != 1 {
		t.Fatalf("export header %+v", hdr)
	}
	var line struct {
		Kind  string `json:"kind"`
		Trace string `json:"trace"`
	}
	if err := json.Unmarshal(lines[1], &line); err != nil {
		t.Fatal(err)
	}
	if line.Kind != "trace" || line.Trace != id {
		t.Fatalf("export trace line %+v, want kind=trace trace=%s", line, id)
	}

	off := startServer(t, Config{InProcess: true, TraceCapacity: -1})
	if err := off.ExportTraces(t.TempDir() + "/nope.jsonl"); err == nil {
		t.Fatal("ExportTraces with tracing disabled did not error")
	}
}
