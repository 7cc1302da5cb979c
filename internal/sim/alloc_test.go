package sim

import (
	"context"
	"testing"

	"basevictim/internal/cpu"
	"basevictim/internal/dram"
	"basevictim/internal/hierarchy"
	"basevictim/internal/workload"
)

// steadyProfile is a load-only workload: with no stores there are no
// L2 writebacks, so the hierarchy's per-line generation map never
// grows. That makes "zero heap allocations at steady state" a sharp
// property instead of an amortized one (stores grow the gen map, which
// is real state growth, not hot-path garbage).
func steadyProfile() workload.Profile {
	return workload.Profile{
		Name:     "alloc-guard",
		Seed:     7,
		MemRatio: 0.4, StoreFrac: 0, DepFrac: 0.2,
		HotLines: 2048, TotalLines: 1 << 15, HotFrac: 0.5,
		StreamFrac: 0.2, ReuseFrac: 0.2, ReuseWindow: 256,
		Mix: workload.Friendly(),
	}
}

// TestSteadyStateZeroAllocs pins the arena work: after warmup, running
// the simulator's per-access hot path — core loop, private caches,
// prefetchers, LLC organization, DRAM timing and the value model —
// performs zero heap allocations per instruction batch.
func TestSteadyStateZeroAllocs(t *testing.T) {
	for _, org := range []OrgKind{OrgUncompressed, OrgBaseVictim} {
		org := org
		t.Run(string(org), func(t *testing.T) {
			cfg := quickCfg(org)
			a := getArena()
			defer putArena(a)
			llc, _, err := buildLLC(cfg, a)
			if err != nil {
				t.Fatal(err)
			}
			p := steadyProfile()
			sizer, err := sizerFor(p, cfg)
			if err != nil {
				t.Fatal(err)
			}
			mem := dram.New(dram.DefaultConfig())
			h, err := hierarchy.NewIn(a, hierConfig(cfg), llc, mem, sizer)
			if err != nil {
				t.Fatal(err)
			}
			core := cpu.MustNewIn(a, cpu.DefaultConfig(), h)
			stream := p.StreamIn(a)
			ctx := context.Background()

			// Warm up: touch the footprint, fill the caches, size lines,
			// settle the prefetch streams.
			if _, err := core.RunCtx(ctx, stream, 400_000); err != nil {
				t.Fatal(err)
			}
			if allocs := testing.AllocsPerRun(5, func() {
				if _, err := core.RunCtx(ctx, stream, 50_000); err != nil {
					t.Fatal(err)
				}
			}); allocs != 0 {
				t.Errorf("steady-state run allocates %v objects per 50k instructions, want 0", allocs)
			}
		})
	}
}
