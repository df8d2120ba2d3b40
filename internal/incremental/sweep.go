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

// SweepThresholdParallelCtx returns, for each candidate threshold, the
// match marks of the function with that threshold substituted into
// predicate pj of rule ri, moving no threshold: the what-if exploration
// of threshold choices. It is answered from the materialized state. At
// a threshold t only two sets of pairs can change their mark:
//
//   - a pair ri owns stays matched iff pj passes at t or a later rule
//     fires for it (asked at most once per pair, skipping refuted rules);
//   - an unmatched pair whose one false bit in ri is on pj, and whose
//     other predicates of ri hold, matches iff pj passes at t.
//
// A pair another rule owns stays matched, and every other unmatched
// pair keeps a false witness in ri (invariant 2). So each point is the
// current match set with those candidates flipped, and each candidate's
// pj value is read once. Features read for the first time are memoized.
// workers is unused: the sweep runs on the calling goroutine.
//
// ctx is checked once, before any work: a cancelled sweep returns ctx's
// error and leaves the session exactly as it was.
func (s *Session) SweepThresholdParallelCtx(ctx context.Context, ri, pj int, thresholds []float64, workers int) ([]SweepPoint, error) {
	if err := s.checkState(); err != nil {
		return nil, err
	}
	if err := s.checkPred(ri, pj); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	out := make([]SweepPoint, len(thresholds))
	for ti, thr := range thresholds {
		out[ti] = SweepPoint{Threshold: thr, Matched: s.St.Matched.Clone()}
	}
	q := s.M.C.Rules[ri].Preds[pj] // a copy: the live threshold never moves
	passes := func(v float64, ti int) bool {
		q.Threshold = out[ti].Threshold
		s.M.Stats.PredEvals++
		return q.Eval(v)
	}
	owned := s.St.RuleTrue[ri]
	for pi := owned.NextSet(0); pi >= 0; pi = owned.NextSet(pi + 1) {
		v, later := s.M.FeatureValue(q.Feat, pi), -2 // -2: not asked yet
		for ti := range out {
			if passes(v, ti) {
				continue
			}
			if later == -2 {
				later = s.firstFiring(ri+1, pi, nil)
			}
			if later < 0 {
				out[ti].Matched.Clear(pi)
			}
		}
	}
	falseSet := s.St.PredFalse[ri][pj]
	for pi := falseSet.NextSet(0); pi >= 0; pi = falseSet.NextSet(pi + 1) {
		if s.St.Matched.Get(pi) || !s.othersHold(ri, pj, pi) {
			continue
		}
		v := s.M.FeatureValue(q.Feat, pi)
		for ti := range out {
			if passes(v, ti) {
				out[ti].Matched.Set(pi)
			}
		}
	}
	return out, nil
}

// othersHold reports whether every predicate of rule ri but pj holds
// for pair pi. Recorded false bits answer before anything is evaluated.
func (s *Session) othersHold(ri, pj, pi int) bool {
	for k, pf := range s.St.PredFalse[ri] {
		if k != pj && pf.Get(pi) {
			return false
		}
	}
	for k, p := range s.M.C.Rules[ri].Preds {
		if k == pj {
			continue
		}
		s.M.Stats.PredEvals++
		if !p.Eval(s.M.FeatureValue(p.Feat, pi)) {
			return false
		}
	}
	return true
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
