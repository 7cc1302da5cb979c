package main

import (
	"math/rand"
	"time"
)

// reqKey is what makes a bvsimd request distinct: the trace, the
// organization and the instruction budget.
type reqKey struct {
	Trace string
	Org   string
	Ins   uint64
}

// request is one entry of the open-loop schedule.
type request struct {
	seq   int
	phase string
	at    time.Duration // due time, from the start of the schedule
	hit   bool
	key   reqKey
	// of is the index of the miss whose key a hit repeats; -1 for misses.
	of int
}

// phase is one stretch of the schedule at a fixed Poisson rate.
type phase struct {
	name string
	rate float64 // requests per second
	dur  time.Duration
}

// loadPlan fixes a serve-mixed schedule from its seed.
type loadPlan struct {
	traces  []string
	orgs    []string
	baseIns uint64
	// hitShare is the fraction of requests that repeat an answered key.
	hitShare float64
	// hitLag is how long before a hit its key's miss must have been
	// due; misses complete well within it, so a hit repeats a key the
	// server has already answered.
	hitLag time.Duration
}

// schedule draws the open-loop arrivals of every phase back to back:
// exponential gaps at the phase's rate. Misses get fresh keys whose
// budgets climb by a seeded step, so no key repeats however long the
// run; hits repeat a seeded earlier miss due at least hitLag before.
// The same seed always yields the same schedule.
func (lp loadPlan) schedule(seed uint64, phases []phase) []request {
	rng := rand.New(rand.NewSource(int64(seed)))
	var out []request
	var misses []int
	ins := lp.baseIns
	var t0 time.Duration
	// eligible counts the misses due at least hitLag before now; due
	// times only grow, so it only grows.
	eligible := 0
	for _, ph := range phases {
		t := t0
		for {
			t += time.Duration(rng.ExpFloat64() / ph.rate * float64(time.Second))
			if t >= t0+ph.dur {
				break
			}
			r := request{seq: len(out), phase: ph.name, at: t, of: -1}
			for eligible < len(misses) && out[misses[eligible]].at <= t-lp.hitLag {
				eligible++
			}
			if eligible > 0 && rng.Float64() < lp.hitShare {
				r.hit = true
				r.of = misses[rng.Intn(eligible)]
				r.key = out[r.of].key
			} else {
				ins += 1 + uint64(rng.Intn(8))
				r.key = reqKey{Trace: lp.traces[rng.Intn(len(lp.traces))], Org: lp.orgs[rng.Intn(len(lp.orgs))], Ins: ins}
				misses = append(misses, len(out))
			}
			out = append(out, r)
		}
		t0 += ph.dur
	}
	return out
}
