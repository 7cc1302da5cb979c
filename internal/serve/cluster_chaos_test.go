package serve

// The multi-node chaos harness: a 3-node cluster sharing one
// checkpoint directory is driven through a seeded schedule of peer
// kill, restart, and partition while serving a fixed key set, and the
// records it persists must be byte-identical to a clean single-host
// run of the same keys. That equality is the cluster's entire
// correctness claim (see internal/cluster's package doc): membership
// and routing are availability machinery, and the worst they can do
// under chaos is duplicate deterministic work.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"basevictim/internal/cluster"
	"basevictim/internal/figures"
	"basevictim/internal/sim"
	"basevictim/internal/workload"
)

// partitionSet is the shared network-fault plane: a transport wrapper
// consults it on every probe and forward, and refuses to carry traffic
// from or to a partitioned address. Symmetric by construction.
type partitionSet struct {
	mu      sync.Mutex
	blocked map[string]bool
}

func newPartitionSet() *partitionSet {
	return &partitionSet{blocked: make(map[string]bool)}
}

func (p *partitionSet) set(addr string, cut bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.blocked[addr] = cut
}

func (p *partitionSet) cut(a, b string) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.blocked[a] || p.blocked[b]
}

// partitionedTransport is one node's view of the fault plane.
type partitionedTransport struct {
	self string
	set  *partitionSet
	next http.RoundTripper
}

func (t *partitionedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if t.set.cut(t.self, req.URL.Host) {
		return nil, fmt.Errorf("partitioned: %s -> %s", t.self, req.URL.Host)
	}
	return t.next.RoundTrip(req)
}

// reserveAddrs picks n distinct loopback ports and releases them, so
// cluster configs can name every peer before any server starts.
func reserveAddrs(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	lns := make([]net.Listener, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	for _, ln := range lns {
		ln.Close()
	}
	return addrs
}

// chaosCluster manages the 3 nodes: start, kill, restart.
type chaosCluster struct {
	t      *testing.T
	addrs  []string
	dir    string
	faults *partitionSet
	mu     sync.Mutex
	nodes  []*Server // nil while killed
}

func (cc *chaosCluster) config(i int) Config {
	return Config{
		Workers:    2,
		QueueDepth: 32,
		InProcess:  true,
		CacheDir:   cc.dir,
		Seed:       uint64(100 + i),
		Cluster: cluster.Config{
			Self:          cc.addrs[i],
			Peers:         cc.addrs,
			Seed:          uint64(i + 1),
			ProbeInterval: 15 * time.Millisecond,
			ProbeTimeout:  10 * time.Millisecond,
			BackoffBase:   2 * time.Millisecond,
			BackoffCap:    10 * time.Millisecond,
			// Hedging off (delay pinned past any test request): the
			// harness wants deterministic-ish traffic, not tail-latency
			// tuning.
			HedgeMin: 5 * time.Second,
			HedgeMax: 5 * time.Second,
			Transport: &partitionedTransport{
				self: cc.addrs[i],
				set:  cc.faults,
				next: http.DefaultTransport,
			},
		},
	}
}

// start brings node i up on its reserved address, retrying briefly in
// case the OS has not released the port from a prior incarnation.
func (cc *chaosCluster) start(i int) {
	cc.t.Helper()
	s, err := New(cc.config(i))
	if err != nil {
		cc.t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		err = s.Listen(context.Background(), cc.addrs[i])
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			cc.t.Fatalf("node %d cannot rebind %s: %v", i, cc.addrs[i], err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	cc.mu.Lock()
	cc.nodes[i] = s
	cc.mu.Unlock()
}

// kill hard-stops node i (no drain — the point is an abrupt death).
func (cc *chaosCluster) kill(i int) {
	cc.mu.Lock()
	s := cc.nodes[i]
	cc.nodes[i] = nil
	cc.mu.Unlock()
	if s != nil {
		s.Close()
	}
}

// alive returns the indexes of currently running nodes.
func (cc *chaosCluster) alive() []int {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	var out []int
	for i, s := range cc.nodes {
		if s != nil {
			out = append(out, i)
		}
	}
	return out
}

func (cc *chaosCluster) closeAll() {
	for i := range cc.nodes {
		cc.kill(i)
	}
}

// submitUntilOK drives one key to completion against whichever nodes
// are up, absorbing the transient 429/503/transport failures that
// chaos legitimately causes, and returns the decoded result.
func (cc *chaosCluster) submitUntilOK(trace string, ins uint64) (sim.Result, error) {
	deadline := time.Now().Add(30 * time.Second)
	body, _ := json.Marshal(runRequest{Trace: trace, Instructions: ins})
	try := 0
	for {
		alive := cc.alive()
		if len(alive) == 0 {
			return sim.Result{}, fmt.Errorf("no nodes alive")
		}
		i := alive[try%len(alive)]
		try++
		cc.mu.Lock()
		s := cc.nodes[i]
		cc.mu.Unlock()
		if s != nil {
			res, err := http.Post("http://"+s.Addr()+"/v1/run", "application/json", bytes.NewReader(body))
			if err == nil {
				var rr runResponse
				decodeErr := json.NewDecoder(res.Body).Decode(&rr)
				res.Body.Close()
				if res.StatusCode == http.StatusOK && decodeErr == nil {
					return rr.Result, nil
				}
			}
		}
		if time.Now().After(deadline) {
			return sim.Result{}, fmt.Errorf("key %s/%d not served in time", trace, ins)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// waitPeerState polls node i's /v1/cluster until peer reaches state.
func (cc *chaosCluster) waitPeerState(i int, peer, state string) {
	cc.t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		cc.mu.Lock()
		s := cc.nodes[i]
		cc.mu.Unlock()
		if s != nil {
			res, err := http.Get("http://" + s.Addr() + "/v1/cluster")
			if err == nil {
				var doc struct {
					Peers []cluster.PeerStatus `json:"peers"`
				}
				derr := json.NewDecoder(res.Body).Decode(&doc)
				res.Body.Close()
				if derr == nil {
					for _, p := range doc.Peers {
						if p.Addr == peer && p.State == state {
							return
						}
					}
				}
			}
		}
		if time.Now().After(deadline) {
			cc.t.Fatalf("node %d never saw %s reach %q", i, peer, state)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// chaosKey is one (trace, budget) request of the chaos suite.
type chaosKey struct {
	trace string
	ins   uint64
}

// chaosKeys is the fixed key set the suite serves: 3 traces x 4
// budgets, small enough to finish fast, varied enough to land on every
// shard of a 3-node ring.
func chaosKeys(t *testing.T) []chaosKey {
	t.Helper()
	suite := workload.Suite()
	if len(suite) < 3 {
		t.Fatalf("workload suite too small: %d", len(suite))
	}
	var keys []chaosKey
	for _, p := range suite[:3] {
		for _, ins := range []uint64{20_000, 30_000, 40_000, 50_000} {
			keys = append(keys, chaosKey{p.Name, ins})
		}
	}
	return keys
}

// owner returns the index of the node that owns k on the ring, as node
// 0 routes it while every node is alive.
func (cc *chaosCluster) owner(k chaosKey) int {
	cfg := sim.Default()
	cfg.Instructions = k.ins
	own := cc.nodes[0].cluster.Route(routeKey(k.trace, cfg), false).Owner
	for i, a := range cc.addrs {
		if a == own {
			return i
		}
	}
	cc.t.Fatalf("ring owner %s of %s/%d is not a cluster member", own, k.trace, k.ins)
	return -1
}

// schedule orders keys so that every chaos window opens with a key
// whose ring owner makes it exercise the path the suite asserts on:
// key 0 is owned by node 1 or 2 (node 0 forwards it), key third by
// node 1 (killed there, so it fails over) and key 2*third by node 2
// (partitioned there, so it fails over). Ring placement hashes the
// randomly reserved ports, so when the fixed set lacks such keys,
// extra budgets of the first trace are appended until it has them.
func (cc *chaosCluster) schedule(keys []chaosKey) []chaosKey {
	owners := make([]int, len(keys))
	count := [3]int{}
	for i, k := range keys {
		owners[i] = cc.owner(k)
		count[owners[i]]++
	}
	for ins := keys[0].ins + 1; count[1] == 0 || count[2] == 0 || count[1]+count[2] < 3; ins++ {
		k := chaosKey{keys[0].trace, ins}
		o := cc.owner(k)
		if o == 0 || (count[o] > 0 && count[1]+count[2] >= 3) {
			continue
		}
		keys, owners = append(keys, k), append(owners, o)
		count[o]++
	}
	// pick removes and returns the first key whose owner is accepted;
	// the loop above guarantees one exists for each call below.
	pick := func(accept func(int) bool) chaosKey {
		i := slices.IndexFunc(owners, accept)
		k := keys[i]
		keys, owners = slices.Delete(keys, i, i+1), slices.Delete(owners, i, i+1)
		return k
	}
	third := len(keys) / 3
	killed := pick(func(o int) bool { return o == 1 })
	cut := pick(func(o int) bool { return o == 2 })
	forwarded := pick(func(o int) bool { return o != 0 })
	keys = slices.Insert(keys, 0, forwarded)
	keys = slices.Insert(keys, third, killed)
	return slices.Insert(keys, 2*third, cut)
}

// readRecords maps record file name -> contents for a checkpoint dir,
// failing on any leftover claim lockfile.
func readRecords(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte)
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".lock") {
			t.Fatalf("leaked claim lockfile %s in %s", e.Name(), dir)
		}
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = b
	}
	return out
}

// TestClusterChaosByteIdentical is the tentpole acceptance test: a
// 3-node cluster survives a peer kill, a restart, and a network
// partition mid-suite, and the checkpoint records it merges are
// byte-identical to a clean single-host run of the same keys.
func TestClusterChaosByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-node chaos suite is not short")
	}
	cc := &chaosCluster{
		t:      t,
		addrs:  reserveAddrs(t, 3),
		dir:    t.TempDir(),
		faults: newPartitionSet(),
		nodes:  make([]*Server, 3),
	}
	for i := range cc.nodes {
		cc.start(i)
	}
	t.Cleanup(cc.closeAll)
	keys := cc.schedule(chaosKeys(t))

	// The seeded schedule, expressed in key-sequence time: node 1 dies
	// after the first third, comes back after the second third (when
	// node 2 is also cut off), and the partition heals for the tail.
	third := len(keys) / 3
	results := make([]sim.Result, len(keys))
	for i, k := range keys {
		switch i {
		case third:
			t.Logf("chaos: killing node 1 (%s)", cc.addrs[1])
			cc.kill(1)
			// The failure window only counts once the survivors have
			// detected it — otherwise a fast suite outruns the probes.
			cc.waitPeerState(0, cc.addrs[1], "dead")
			cc.waitPeerState(2, cc.addrs[1], "dead")
		case 2 * third:
			t.Logf("chaos: restarting node 1, partitioning node 2 (%s)", cc.addrs[2])
			cc.start(1)
			cc.faults.set(cc.addrs[2], true)
			cc.waitPeerState(0, cc.addrs[2], "dead")
		case 2*third + third/2:
			t.Logf("chaos: healing partition of node 2")
			cc.faults.set(cc.addrs[2], false)
			cc.waitPeerState(0, cc.addrs[2], "alive")
		}
		r, err := cc.submitUntilOK(k.trace, k.ins)
		if err != nil {
			t.Fatalf("key %d (%s/%d): %v", i, k.trace, k.ins, err)
		}
		results[i] = r
	}

	// The cluster must have actually exercised its failure paths: with
	// a node dead for a third of the suite, someone forwarded and
	// someone failed over. (Which node did is schedule- and
	// timing-dependent; the sum is not.)
	var forwards, failovers uint64
	for _, i := range cc.alive() {
		cc.mu.Lock()
		s := cc.nodes[i]
		cc.mu.Unlock()
		snap := s.cluster.Metrics()
		forwards += snap.Counters["cluster.forwards"]
		failovers += snap.Counters["cluster.failovers"]
	}
	if forwards == 0 {
		t.Error("no request was ever forwarded: the suite did not exercise routing")
	}
	if failovers == 0 {
		t.Error("no key ever failed over: the kill window did not exercise failover")
	}

	// No node may have observed a divergent re-execution, and every
	// surviving store's records must verify.
	for _, i := range cc.alive() {
		cc.mu.Lock()
		s := cc.nodes[i]
		cc.mu.Unlock()
		if _, divergent := s.store.Conflicts(); divergent != 0 {
			t.Errorf("node %d observed %d divergent re-executions", i, divergent)
		}
	}
	cc.closeAll()
	if n, err := figures.VerifyDir(cc.dir); err != nil || n != len(keys) {
		t.Fatalf("cluster dir verification = (%d, %v), want (%d, nil)", n, err, len(keys))
	}

	// Clean single-host reference: same keys, fresh dir, no cluster.
	cleanDir := t.TempDir()
	ref, err := New(Config{Workers: 2, QueueDepth: 32, InProcess: true, CacheDir: cleanDir, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.Listen(context.Background(), "127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ref.Close)
	for i, k := range keys {
		body, _ := json.Marshal(runRequest{Trace: k.trace, Instructions: k.ins})
		res, rb := postJSON(t, "http://"+ref.Addr()+"/v1/run", json.RawMessage(body))
		if res.StatusCode != http.StatusOK {
			t.Fatalf("reference run %s/%d: %d %s", k.trace, k.ins, res.StatusCode, rb)
		}
		var rr runResponse
		if err := json.Unmarshal(rb, &rr); err != nil {
			t.Fatal(err)
		}
		if fmt.Sprintf("%+v", rr.Result) != fmt.Sprintf("%+v", results[i]) {
			t.Errorf("key %s/%d: cluster result %+v != single-host %+v",
				k.trace, k.ins, results[i], rr.Result)
		}
	}
	ref.Close()

	// The core claim: the merged cluster tables are byte-identical to
	// the clean run — same record files, same bytes.
	got := readRecords(t, cc.dir)
	want := readRecords(t, cleanDir)
	if len(got) != len(want) {
		t.Fatalf("record count: cluster %d, single-host %d", len(got), len(want))
	}
	for name, wb := range want {
		gb, ok := got[name]
		if !ok {
			t.Errorf("record %s exists single-host but not in the cluster dir", name)
			continue
		}
		if !bytes.Equal(gb, wb) {
			t.Errorf("record %s differs between cluster and single-host runs", name)
		}
	}
}

// TestClusterStatusEndpointLive: /v1/cluster on a live 3-node cluster
// reports every member with detector state, and a killed peer is
// eventually marked dead on the survivors.
func TestClusterStatusEndpointLive(t *testing.T) {
	cc := &chaosCluster{
		t:      t,
		addrs:  reserveAddrs(t, 3),
		dir:    t.TempDir(),
		faults: newPartitionSet(),
		nodes:  make([]*Server, 3),
	}
	for i := range cc.nodes {
		cc.start(i)
	}
	t.Cleanup(cc.closeAll)

	res, body := getJSON(t, "http://"+cc.nodes[0].Addr()+"/v1/cluster")
	if res.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/cluster: %d %s", res.StatusCode, body)
	}
	var doc struct {
		Enabled bool `json:"enabled"`
		cluster.Status
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("bad cluster document: %v\n%s", err, body)
	}
	if !doc.Enabled || doc.Members != 3 || len(doc.Peers) != 3 {
		t.Fatalf("cluster document: %s", body)
	}

	cc.kill(2)
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, body = getJSON(t, "http://"+cc.nodes[0].Addr()+"/v1/cluster")
		if err := json.Unmarshal(body, &doc); err != nil {
			t.Fatal(err)
		}
		var state string
		for _, p := range doc.Peers {
			if p.Addr == cc.addrs[2] {
				state = p.State
			}
		}
		if state == "dead" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("killed peer never marked dead; last state %q\n%s", state, body)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
