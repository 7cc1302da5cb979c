package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"basevictim/internal/sim"
)

// golden holds the expected outputs the benchmark checks against.
// Simulations are deterministic, so each (trace, org, budget) has one
// right answer regardless of seed, run order or host.
type golden struct {
	// Runs maps a run key to the digest of its simulated outcome:
	// cycles, IPC bits, LLC statistics and DRAM traffic.
	Runs map[string]string `json:"runs"`
	// Observed maps a run key to the digest of the same outcome plus
	// the run's metrics snapshot (taken with an observer attached).
	Observed map[string]string `json:"observed"`
	// Figures maps a suite setting to the SHA-256 of the concatenated
	// Table.Format() output of every experiment.
	Figures map[string]string `json:"figures"`
}

const goldenFile = "golden.json"

// loadGolden reads the goldens built into the binary, or with a
// non-empty dir the ones on disk there (to extend them in update mode).
func loadGolden(dir string) (*golden, error) {
	g := &golden{Runs: map[string]string{}, Observed: map[string]string{}, Figures: map[string]string{}}
	b, err := goldenFS.ReadFile("golden/" + goldenFile)
	if dir != "" {
		b, err = os.ReadFile(filepath.Join(dir, goldenFile))
	}
	if err != nil {
		return g, fmt.Errorf("golden: %w", err)
	}
	if err := json.Unmarshal(b, g); err != nil {
		return g, fmt.Errorf("golden: %w", err)
	}
	return g, nil
}

func (g *golden) write(dir string) error {
	b, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, goldenFile), append(b, '\n'), 0o644)
}

// check compares (or, in update mode, records) one digest.
func (r *run) check(table map[string]string, key, got string) {
	if r.update {
		table[key] = got
		return
	}
	want, ok := table[key]
	switch {
	case !ok:
		r.rep.fail("%s: no golden", key)
	case want != got:
		r.rep.fail("%s: digest %s, golden %s", key, got[:12], want[:12])
	}
}

func runKey(trace string, cfg sim.Config) string {
	return fmt.Sprintf("%s/%s/%d", trace, cfg.Org, cfg.Instructions)
}

// resultDigest hashes a run's simulated outcome; with observed set it
// also covers the metrics snapshot.
func resultDigest(res sim.Result, observed bool) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s|%s|%d|%d|%x|%d|%d|%d|%+v", res.Trace, res.Org, res.Instructions, res.Cycles,
		math.Float64bits(res.IPC), res.DemandDRAMReads, res.DRAMReads, res.DRAMWrites, res.LLC)
	if observed {
		b, _ := json.Marshal(res.Obs) // a snapshot of plain maps always marshals
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func textDigest(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}
