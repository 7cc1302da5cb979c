package figures

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"

	"basevictim/internal/sim"
	"basevictim/internal/workload"
)

// This file is the parallel experiment engine: a bounded worker pool
// over which every experiment fans out its independent (trace, config)
// simulations, and the batch helpers the experiment functions use.
//
// Determinism contract: results are collected in input order and every
// simulation is memoized by its full (trace, config) key, so a parallel
// session produces byte-identical tables to a Workers=1 session (the
// only observable difference is the interleaving of Progress lines).
//
// Failure contract: a checker violation, a cancelled context or any
// ordinary error stops the batch — no new jobs start, in-flight jobs
// drain (their own context polls make that quick), and the
// lowest-indexed error is returned unwrapped. A contained run panic
// (*sim.RunPanicError) is the one exception: it fails only its own
// job, the rest of the batch completes (and checkpoints), and the
// panic error is reported at the end — one bad config cannot take the
// suite's other results down with it.

// workerCount resolves the session's worker budget: Session.Workers,
// or GOMAXPROCS when unset.
func (s *Session) workerCount() int {
	if s.Workers > 0 {
		return s.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// runJobs executes job(0..n-1) on up to workerCount goroutines
// (inline when the budget is 1), honoring the failure contract above.
// Jobs observe cancellation through the ctx they capture; runJobs
// additionally stops launching new jobs once ctx is done and returns
// ctx.Err() if no job reported an error first.
func (s *Session) runJobs(ctx context.Context, n int, job func(i int) error) error {
	if n == 0 {
		return nil
	}
	workers := s.workerCount()
	if workers > n {
		workers = n
	}
	var (
		next atomic.Int64
		stop atomic.Bool
	)
	errs := make([]error, n)
	worker := func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= n || stop.Load() || ctx.Err() != nil {
				return
			}
			if err := job(i); err != nil {
				errs[i] = err
				// A contained panic fails only its own run; everything
				// else cancels the batch.
				var pe *sim.RunPanicError
				if !errors.As(err, &pe) {
					stop.Store(true)
					if s.stopped != nil {
						s.stopped()
					}
				}
			}
		}
	}
	if workers <= 1 {
		worker()
	} else {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				worker()
			}()
		}
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return ctx.Err()
}

// runReq is one (trace, config) simulation request.
type runReq struct {
	p   workload.Profile
	cfg sim.Config
}

// runAll simulates every request concurrently (bounded by the worker
// budget) and returns results in input order. Duplicate requests and
// requests already memoized cost nothing extra: run's singleflight
// cache guarantees each distinct (trace, config) simulates once.
func (s *Session) runAll(ctx context.Context, reqs []runReq) ([]sim.Result, error) {
	out := make([]sim.Result, len(reqs))
	err := s.runJobs(ctx, len(reqs), func(i int) error {
		r, err := s.run(ctx, reqs[i].p, reqs[i].cfg)
		if err != nil {
			return err
		}
		out[i] = r
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
