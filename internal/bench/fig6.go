package bench

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"rulematch/internal/incremental"
	"rulematch/internal/rule"
)

// ChangeTiming aggregates incremental run times for one change type
// (one row of the paper's Figure 6 table).
type ChangeTiming struct {
	Change   string
	Trials   int
	Avg, Max time.Duration
	AvgPairs float64 // average candidate pairs examined
}

// Fig6 measures incremental matching time for the six change types of
// Section 6.2 over `trials` random changes each, following the paper's
// methodology: apply the inverse change first (unmeasured), then the
// measured change — so each measurement starts from materialized state.
func Fig6(task *Task, trials int, seed int64) (*Table, []ChangeTiming, error) {
	if trials <= 0 {
		trials = 100
	}
	c, err := task.CompileSubset(len(task.Rules))
	if err != nil {
		return nil, nil, err
	}
	s := incremental.NewSession(c, task.Pairs())
	if err := s.Run(context.TODO()); err != nil {
		return nil, nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	pool := task.DS.Domain.FeaturePool()

	randomPredicate := func() rule.Predicate {
		op := rule.Ge
		if rng.Intn(3) == 0 {
			op = rule.Lt
		}
		return rule.Predicate{
			Feature:   pool[rng.Intn(len(pool))],
			Op:        op,
			Threshold: float64(1+rng.Intn(9)) / 10,
		}
	}

	measure := func(name string, trial func() (time.Duration, int, bool)) (ChangeTiming, error) {
		ct := ChangeTiming{Change: name}
		var sumPairs int
		for ct.Trials < trials {
			d, pairsExamined, ok := trial()
			if !ok {
				continue
			}
			ct.Trials++
			ct.Avg += d
			sumPairs += pairsExamined
			if d > ct.Max {
				ct.Max = d
			}
		}
		ct.Avg /= time.Duration(ct.Trials)
		ct.AvgPairs = float64(sumPairs) / float64(ct.Trials)
		return ct, nil
	}

	var results []ChangeTiming

	// Add predicate: remove first (unmeasured, paper methodology), then
	// measure adding it back.
	ct, err := measure("add predicate", func() (time.Duration, int, bool) {
		ri := rng.Intn(len(s.M.C.Rules))
		if len(s.M.C.Rules[ri].Preds) < 2 {
			return 0, 0, false
		}
		pj := rng.Intn(len(s.M.C.Rules[ri].Preds))
		p := s.M.C.Function().Rules[ri].Preds[pj]
		if err := s.RemovePredicate(ri, pj); err != nil {
			return 0, 0, false
		}
		d := timeIt(func() { err = s.AddPredicate(ri, p) })
		if err != nil {
			panic(err)
		}
		return d, s.LastOp.PairsExamined, true
	})
	if err != nil {
		return nil, nil, err
	}
	results = append(results, ct)

	// Remove predicate: measured removal, then restore.
	ct, err = measure("remove predicate", func() (time.Duration, int, bool) {
		ri := rng.Intn(len(s.M.C.Rules))
		if len(s.M.C.Rules[ri].Preds) < 2 {
			return 0, 0, false
		}
		pj := rng.Intn(len(s.M.C.Rules[ri].Preds))
		p := s.M.C.Function().Rules[ri].Preds[pj]
		var opErr error
		d := timeIt(func() { opErr = s.RemovePredicate(ri, pj) })
		if opErr != nil {
			return 0, 0, false
		}
		examined := s.LastOp.PairsExamined
		if err := s.AddPredicate(ri, p); err != nil {
			panic(err)
		}
		return d, examined, true
	})
	if err != nil {
		return nil, nil, err
	}
	results = append(results, ct)

	// Tighten / relax thresholds: move by a random valid amount from
	// {0.1..0.5} in the strictening (resp. loosening) direction, then
	// move back unmeasured.
	thresholdTrial := func(tighten bool) func() (time.Duration, int, bool) {
		return func() (time.Duration, int, bool) {
			ri := rng.Intn(len(s.M.C.Rules))
			preds := s.M.C.Rules[ri].Preds
			pj := rng.Intn(len(preds))
			p := preds[pj]
			if p.Op == rule.Eq {
				return 0, 0, false
			}
			delta := float64(1+rng.Intn(5)) / 10
			dir := 1.0
			if p.Op.Upper() {
				dir = -1
			}
			if !tighten {
				dir = -dir
			}
			nt := p.Threshold + dir*delta
			if nt <= 0 || nt >= 1 {
				return 0, 0, false
			}
			old := p.Threshold
			var opErr error
			var d time.Duration
			if tighten {
				d = timeIt(func() { opErr = s.TightenPredicate(ri, pj, nt) })
			} else {
				d = timeIt(func() { opErr = s.RelaxPredicate(ri, pj, nt) })
			}
			if opErr != nil {
				return 0, 0, false
			}
			examined := s.LastOp.PairsExamined
			if err := s.SetThreshold(ri, pj, old); err != nil {
				panic(err)
			}
			return d, examined, true
		}
	}
	ct, err = measure("tighten threshold", thresholdTrial(true))
	if err != nil {
		return nil, nil, err
	}
	results = append(results, ct)
	ct, err = measure("relax threshold", thresholdTrial(false))
	if err != nil {
		return nil, nil, err
	}
	results = append(results, ct)

	// Remove rule: measured removal, then re-append.
	ct, err = measure("remove rule", func() (time.Duration, int, bool) {
		if len(s.M.C.Rules) < 2 {
			return 0, 0, false
		}
		ri := rng.Intn(len(s.M.C.Rules))
		r := s.M.C.Function().Rules[ri]
		var opErr error
		d := timeIt(func() { opErr = s.RemoveRule(ri) })
		if opErr != nil {
			return 0, 0, false
		}
		examined := s.LastOp.PairsExamined
		if err := s.AddRule(r); err != nil {
			panic(err)
		}
		return d, examined, true
	})
	if err != nil {
		return nil, nil, err
	}
	results = append(results, ct)

	// Add rule: remove first (unmeasured), then measure re-adding.
	ct, err = measure("add rule", func() (time.Duration, int, bool) {
		if len(s.M.C.Rules) < 2 {
			return 0, 0, false
		}
		ri := rng.Intn(len(s.M.C.Rules))
		r := s.M.C.Function().Rules[ri]
		if err := s.RemoveRule(ri); err != nil {
			return 0, 0, false
		}
		var opErr error
		d := timeIt(func() { opErr = s.AddRule(r) })
		if opErr != nil {
			panic(opErr)
		}
		return d, s.LastOp.PairsExamined, true
	})
	if err != nil {
		return nil, nil, err
	}
	results = append(results, ct)

	if err := s.Verify(); err != nil {
		return nil, nil, fmt.Errorf("bench: session diverged after Figure 6 trials: %w", err)
	}
	_ = randomPredicate // available for variants that add novel predicates

	out := &Table{
		Title:  fmt.Sprintf("Figure 6: incremental EM time per change type, %s (%d trials each)", task.DS.Name, trials),
		Header: []string{"Change", "avg ms", "max ms", "avg pairs examined"},
	}
	for _, r := range results {
		out.AddRow(r.Change, ms(r.Avg), ms(r.Max), fmt.Sprintf("%.1f", r.AvgPairs))
	}
	out.Notes = append(out.Notes,
		"strictening changes (add predicate, tighten, remove rule) touch few pairs; loosening ones may compute new features (paper: ~6ms vs ~34ms)")
	return out, results, nil
}
