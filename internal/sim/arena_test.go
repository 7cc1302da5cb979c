package sim

import (
	"context"
	"testing"

	"basevictim/internal/workload"
)

// TestHeldArenaFootprintBounded: a process running one simulation at a
// time reuses one strongly held arena, and once it has seen each run
// shape the arena stops growing. The first pass over a varied mix of
// traces, organizations and compressors may add chunks; a second pass
// over the same mix, in reverse order, must add none.
func TestHeldArenaFootprintBounded(t *testing.T) {
	suite := workload.Suite()
	var jobs []struct {
		p   workload.Profile
		cfg Config
	}
	for _, name := range []string{"mcf.p1", "libquantum.p1", "omnetpp.p1", "lbm.p2"} {
		p, ok := workload.ByName(suite, name)
		if !ok {
			t.Fatalf("no trace %s", name)
		}
		for _, org := range []OrgKind{OrgBaseVictim, OrgUncompressed} {
			for _, comp := range []string{"bdi", "fpc", "cpack"} {
				cfg := quickCfg(org)
				cfg.Instructions = 20_000
				cfg.Compressor = comp
				jobs = append(jobs, struct {
					p   workload.Profile
					cfg Config
				}{p, cfg})
			}
		}
	}
	run := func(i int) {
		t.Helper()
		if _, err := RunSingleCtx(context.Background(), jobs[i].p, jobs[i].cfg); err != nil {
			t.Fatalf("%s on %s/%s: %v", jobs[i].p.Name, jobs[i].cfg.Org, jobs[i].cfg.Compressor, err)
		}
	}
	for i := range jobs {
		run(i)
	}
	a := held.Load()
	if a == nil {
		t.Fatal("no arena held after a run")
	}
	chunks := a.Chunks()
	for i := len(jobs) - 1; i >= 0; i-- {
		run(i)
		if got := held.Load(); got != a {
			t.Fatalf("run %d did not reuse the held arena", i)
		}
		if got := a.Chunks(); got != chunks {
			t.Fatalf("second pass: %s on %s/%s changed the arena from %d to %d chunks",
				jobs[i].p.Name, jobs[i].cfg.Org, jobs[i].cfg.Compressor, chunks, got)
		}
	}
}
