package figures

import (
	"context"
	"fmt"

	"basevictim/internal/compress"
	"basevictim/internal/stats"
	"basevictim/internal/workload"
)

// These experiments go beyond the paper's figures: they are the
// design-choice ablations DESIGN.md calls out, plus the paper's own
// briefly-sketched extensions (the non-inclusive Victim Cache of
// Section IV.B.3, and the compression-algorithm orthogonality claim of
// Section VII.A).

// ablationTraces is a representative friendly subset so ablations stay
// affordable.
func (s *Session) ablationTraces() []workload.Profile {
	friendly, _ := workload.CompressionFriendly(s.all)
	ps := s.limit(friendly)
	if s.MaxTraces == 0 && len(ps) > 12 {
		ps = ps[:12]
	}
	return ps
}

// LatencyAblation measures the cost of the two latency adders the
// two-tag organization introduces: the extra tag cycle and the 2-cycle
// BDI decompression (Section V notes zero/uncompressed lines skip it).
func (s *Session) LatencyAblation(ctx context.Context) (Table, error) {
	t := Table{
		ID:     "AblLatency",
		Title:  "Latency ablation: Base-Victim IPC ratio vs 2MB uncompressed",
		Header: []string{"tag cycles", "decompress cycles", "IPC geomean"},
	}
	ps := s.ablationTraces()
	for _, row := range []struct{ tag, dec uint64 }{
		{0, 0}, // free compression (upper bound)
		{1, 2}, // the paper's assumption
		{2, 4}, // pessimistic pipeline
		{1, 0}, // what the zero/raw fast path is worth if universal
	} {
		cfg := bvDefault()
		cfg.TagCycles, cfg.DecompressCycles = row.tag, row.dec
		ipc, _, err := s.ratioSeries(ctx, ps, cfg, base2MB())
		if err != nil {
			return Table{}, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(row.tag), fmt.Sprint(row.dec), f3(stats.GeoMean(ipc))})
	}
	t.Notes = append(t.Notes, "gain is dominated by miss savings; latency adders trim tenths of a percent")
	return t, nil
}

// CompressorAblation swaps the compression algorithm under the same
// architecture: the paper argues algorithms are orthogonal (Section
// VII.A) and picks BDI for latency; FPC and C-PACK change the size
// distribution and thus the pairing success rate.
func (s *Session) CompressorAblation(ctx context.Context) (Table, error) {
	t := Table{
		ID:     "AblCompressor",
		Title:  "Compression algorithm ablation (Base-Victim, IPC ratio vs 2MB uncompressed)",
		Header: []string{"algorithm", "IPC geomean", "victim hits/1k ins", "mean segs"},
	}
	ps := s.ablationTraces()
	for _, alg := range []string{"bdi", "fpc", "cpack"} {
		cfg := bvDefault()
		cfg.Compressor = alg
		ipc, _, err := s.ratioSeries(ctx, ps, cfg, base2MB())
		if err != nil {
			return Table{}, err
		}
		var vh, ins uint64
		for _, p := range ps {
			r, err := s.run(ctx, p, cfg)
			if err != nil {
				return Table{}, err
			}
			vh += r.LLC.VictimHits
			ins += r.Instructions
		}
		meanSegs := 0.0
		for _, p := range ps[:min(3, len(ps))] {
			v, err := sizerForAblation(p, alg)
			if err != nil {
				return Table{}, fmt.Errorf("figures: compressor %q: %w", alg, err)
			}
			meanSegs += v.MeanCompressedRatio(1000) * 16
		}
		meanSegs /= float64(min(3, len(ps)))
		t.Rows = append(t.Rows, []string{alg, f3(stats.GeoMean(ipc)),
			f3(float64(vh) / float64(ins) * 1000), f3(meanSegs)})
	}
	return t, nil
}

func sizerForAblation(p workload.Profile, alg string) (*workload.Values, error) {
	c, err := compress.ByName(alg)
	if err != nil {
		return nil, err
	}
	return p.ValuesWith(c), nil
}

// Inclusion compares the paper's inclusive configuration (clean victim
// lines, silent evictions, no writeback savings) against the
// non-inclusive variant of Section IV.B.3 (dirty victim lines allowed,
// writebacks can be saved).
func (s *Session) Inclusion(ctx context.Context) (Table, error) {
	t := Table{
		ID:     "Inclusion",
		Title:  "Inclusive vs non-inclusive Victim Cache (Base-Victim)",
		Header: []string{"mode", "IPC geomean", "DRAM write ratio"},
	}
	ps := s.ablationTraces()
	for _, mode := range []struct {
		label     string
		inclusive bool
	}{
		{"inclusive (paper)", true},
		{"non-inclusive (IV.B.3)", false},
	} {
		cfg := bvDefault()
		cfg.Inclusive = mode.inclusive
		ipc, _, err := s.ratioSeries(ctx, ps, cfg, base2MB())
		if err != nil {
			return Table{}, err
		}
		var writes []float64
		for _, p := range ps {
			r, err := s.run(ctx, p, cfg)
			if err != nil {
				return Table{}, err
			}
			b, err := s.run(ctx, p, base2MB())
			if err != nil {
				return Table{}, err
			}
			if b.DRAMWrites > 0 {
				writes = append(writes, float64(r.DRAMWrites)/float64(b.DRAMWrites))
			}
		}
		t.Rows = append(t.Rows, []string{mode.label,
			f3(stats.GeoMean(ipc)), f3(stats.GeoMean(writes))})
	}
	t.Notes = append(t.Notes,
		"the paper's inclusive mode cannot reduce writebacks (victim lines are clean);",
		"the non-inclusive variant keeps dirty victims and can")
	return t, nil
}

// PrefetchInteraction tests the compression-prefetching interaction
// the introduction cites (Alameldeen & Wood, HPCA 2007: positive): the
// gain from Base-Victim with prefetchers on vs off.
func (s *Session) PrefetchInteraction(ctx context.Context) (Table, error) {
	t := Table{
		ID:     "PrefetchX",
		Title:  "Compression x prefetching interaction (IPC geomean vs matching baseline)",
		Header: []string{"prefetchers", "Base-Victim gain"},
	}
	ps := s.ablationTraces()
	for _, pf := range []bool{true, false} {
		cfg := bvDefault()
		cfg.Prefetch = pf
		base := base2MB()
		base.Prefetch = pf
		ipc, _, err := s.ratioSeries(ctx, ps, cfg, base)
		if err != nil {
			return Table{}, err
		}
		label := "off"
		if pf {
			label = "on"
		}
		t.Rows = append(t.Rows, []string{label, pct(stats.GeoMean(ipc))})
	}
	return t, nil
}
