package incremental

import (
	"context"
	"fmt"

	"rulematch/internal/bitmap"
)

// SweepPoint is the outcome of evaluating the function with one
// candidate threshold substituted into a predicate.
type SweepPoint struct {
	Threshold float64
	Matched   *bitmap.Bits
}

// SweepThresholdParallelCtx evaluates the matching function once per
// candidate threshold for predicate pj of rule ri, without changing
// session state: the what-if exploration dynamic memoing exists for.
// Every required feature is already memoized (or gets memoized on
// first touch), so each sweep point costs mostly lookups. The sweep is
// sharded over workers (core.NormalizeWorkers semantics; callers pass
// s.M.Workers) by core.Matcher.SweepParallelCtx: thresholds are only
// ever mutated on per-chunk clones of the compiled function, and the
// features the sweep computed are absorbed into the session memo
// afterwards, so later sweeps and edits find them warm.
//
// ctx is checked between chunks and between threshold points. On
// cancellation it returns ctx's error and the session is left exactly
// as before the call — no shard memo is absorbed and no stats are
// added — so a client timeout mid-sweep leaves the session valid.
func (s *Session) SweepThresholdParallelCtx(ctx context.Context, ri, pj int, thresholds []float64, workers int) ([]SweepPoint, error) {
	if err := s.checkState(); err != nil {
		return nil, err
	}
	if err := s.checkPred(ri, pj); err != nil {
		return nil, err
	}
	bits, err := s.M.SweepParallelCtx(ctx, workers, ri, pj, thresholds)
	if err != nil {
		return nil, err
	}
	out := make([]SweepPoint, len(thresholds))
	for ti, thr := range thresholds {
		if s.dead != nil {
			bits[ti].AndNot(s.dead)
		}
		out[ti] = SweepPoint{Threshold: thr, Matched: bits[ti]}
	}
	return out, nil
}

// DefaultSweep returns evenly spaced thresholds across (0,1).
func DefaultSweep(steps int) []float64 {
	if steps < 2 {
		steps = 9
	}
	out := make([]float64, steps)
	for i := range out {
		out[i] = float64(i+1) / float64(steps+1)
	}
	return out
}

// String renders a sweep point compactly.
func (p SweepPoint) String() string {
	return fmt.Sprintf("thr=%.3f matches=%d", p.Threshold, p.Matched.Count())
}
