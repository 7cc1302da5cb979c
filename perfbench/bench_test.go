package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
	"time"
)

func TestPercentileNeedsTenBeyond(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 200..1, unsorted on purpose
	}
	if v, ok := percentile(xs, 0.95); v != 190 || !ok {
		t.Errorf("p95 of 1..200 = %v, %v; want 190 with 10 beyond", v, ok)
	}
	if v, ok := percentile(xs[:199], 0.95); ok {
		t.Errorf("p95 of 199 samples = %v accepted with only 9 beyond", v)
	}
	if v, ok := percentile(xs, 0.5); v != 100 || !ok {
		t.Errorf("p50 = %v, %v; want 100", v, ok)
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("percentile of no samples accepted")
	}
	if q, v, ok := highestPercentile(xs[:100], 0.5, 0.9, 0.95, 0.99); q != 0.9 || v != 190 || !ok {
		// xs[:100] holds 200..101; p90 has exactly 10 beyond it.
		t.Errorf("highest percentile of 100 samples = p%v (%v, %v); want p90 = 190", q*100, v, ok)
	}
	if _, _, ok := highestPercentile(xs[:15], 0.9, 0.95); ok {
		t.Error("15 samples accepted for p90")
	}
	if m := median([]float64{3, 1, 2, 4}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

func TestSelfTimeSubtractsOverlappingChildrenOnce(t *testing.T) {
	spans := []span{
		{Name: "parent", ID: 1, Start: 0, End: 100},
		{Name: "a", ID: 2, Parent: 1, Start: 10, End: 40},
		{Name: "a", ID: 3, Parent: 1, Start: 30, End: 60},   // overlaps the first child
		{Name: "b", ID: 4, Parent: 1, Start: 90, End: 120},  // sticks out of the parent
		{Name: "c", ID: 5, Parent: 4, Start: 95, End: 100},  // grandchild: only b loses it
		{Name: "d", ID: 6, Parent: 1, Start: 150, End: 160}, // outside the parent entirely
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{"parent": 40, "a": 60, "b": 25, "c": 5, "d": 10}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("self times = %v, want %v", got, want)
	}
}

func testPlan() ([]request, []phase) {
	phases := []phase{{"lo", 40, 20 * time.Second}, {"hi", 80, 20 * time.Second}}
	return servePlan.schedule(7, phases), phases
}

func TestScheduleKeys(t *testing.T) {
	reqs, _ := testPlan()
	seen := map[reqKey]int{}
	hits := 0
	for i, r := range reqs {
		if r.seq != i {
			t.Fatalf("request %d has seq %d", i, r.seq)
		}
		if !r.hit {
			if j, dup := seen[r.key]; dup {
				t.Fatalf("miss %d repeats the key of miss %d: %+v", i, j, r.key)
			}
			seen[r.key] = i
			continue
		}
		hits++
		j, ok := seen[r.key]
		switch {
		case !ok || r.of != j:
			t.Fatalf("hit %d repeats %+v, which no earlier miss sent", i, r.key)
		case reqs[j].at > r.at-servePlan.hitLag:
			t.Fatalf("hit %d due at %v repeats miss %d due at %v, less than %v before",
				i, r.at, j, reqs[j].at, servePlan.hitLag)
		}
	}
	if share := float64(hits) / float64(len(reqs)); share < 0.2 || share > 0.3 {
		t.Errorf("hit share %.2f, want about %.2f", share, servePlan.hitShare)
	}
}

func TestScheduleRepeatsForASeed(t *testing.T) {
	a, phases := testPlan()
	b, _ := testPlan()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two schedules")
	}
	if c := servePlan.schedule(8, phases); reflect.DeepEqual(a, c) {
		t.Fatal("seeds 7 and 8 gave the same schedule")
	}
	// Arrivals are Poisson at each phase's rate: the counts land near
	// rate x duration.
	n := map[string]int{}
	for _, r := range a {
		n[r.phase]++
	}
	for _, ph := range phases {
		want := ph.rate * ph.dur.Seconds()
		if got := float64(n[ph.name]); got < 0.85*want || got > 1.15*want {
			t.Errorf("phase %s: %v arrivals, want about %v", ph.name, got, want)
		}
	}
}

// TestMetricNamesMatchBenchmarkJSON keeps the declared contract and the
// names the command prints in step.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not found next to the benchmark")
	}
	var decl struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &decl); err != nil {
		t.Fatal(err)
	}
	var wl, e2e, pl []string
	for _, w := range decl.Workloads {
		wl = append(wl, w.Name)
		if workloads[w.Name] == nil {
			t.Errorf("workload %s is declared but not implemented", w.Name)
		}
	}
	for _, m := range decl.EndToEnd {
		e2e = append(e2e, m.Name)
		if unitOf(m.Name) != m.Unit {
			t.Errorf("%s: unit %s printed, %s declared", m.Name, unitOf(m.Name), m.Unit)
		}
	}
	for _, m := range decl.PerLayer {
		pl = append(pl, m.Name)
		if unitOf(m.Name) != m.Unit {
			t.Errorf("%s: unit %s printed, %s declared", m.Name, unitOf(m.Name), m.Unit)
		}
	}
	if len(wl) != len(workloads) {
		t.Errorf("%d workloads declared, %d implemented", len(wl), len(workloads))
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("end-to-end metrics %v declared, %v printed", e2e, endToEnd)
	}
	if !reflect.DeepEqual(pl, perLayer) {
		t.Errorf("per-layer metrics %v declared, %v printed", pl, perLayer)
	}
}
