package bench

import (
	"fmt"
	"time"

	"rulematch/internal/core"
	"rulematch/internal/costmodel"
	"rulematch/internal/estimate"
	"rulematch/internal/incremental"
	"rulematch/internal/order"
)

// CostModelPoint is one Figure 5A data point: actual versus
// model-estimated runtime of DM+EE at a rule-set size, for random and
// Algorithm 6 orderings.
type CostModelPoint struct {
	Rules                     int
	ActualRandom, EstRandom   time.Duration
	ActualOrdered, EstOrdered time.Duration
}

// Fig5A compares actual DM+EE runtime against the Section 4.4.4 cost
// model's estimate (per-pair expected cost × number of pairs), for
// random ordering and for Algorithm 6 ordering.
func Fig5A(task *Task, ruleCounts []int) (*Table, []CostModelPoint, error) {
	pairs := task.Pairs()
	frac := sampleFracFor(len(pairs))
	var results []CostModelPoint
	for _, n := range ruleCounts {
		if n > len(task.Rules) {
			continue
		}
		point := CostModelPoint{Rules: n}
		run := func(apply func(c *core.Compiled, m *costmodel.Model)) (time.Duration, time.Duration, error) {
			c, err := task.CompileRandomSubset(n, 7)
			if err != nil {
				return 0, 0, err
			}
			est := estimate.New(c, pairs, frac, 7)
			model := costmodel.New(c, est)
			if apply != nil {
				apply(c, model)
			} else {
				order.Shuffle(c, 7)
			}
			estimated := time.Duration(model.CostDM() * float64(len(pairs)) * float64(time.Second))
			m := core.NewMatcher(c, pairs)
			actual := timeIt(func() { m.Match() })
			return actual, estimated, nil
		}
		var err error
		point.ActualRandom, point.EstRandom, err = run(nil)
		if err != nil {
			return nil, nil, err
		}
		point.ActualOrdered, point.EstOrdered, err = run(order.GreedyReduction)
		if err != nil {
			return nil, nil, err
		}
		results = append(results, point)
	}
	out := &Table{
		Title:  fmt.Sprintf("Figure 5A: cost model estimate vs actual runtime (ms), %s", task.DS.Name),
		Header: []string{"Rules", "actual(random)", "model(random)", "actual(alg6)", "model(alg6)"},
	}
	for _, r := range results {
		out.AddRow(fmt.Sprint(r.Rules), ms(r.ActualRandom), ms(r.EstRandom),
			ms(r.ActualOrdered), ms(r.EstOrdered))
	}
	return out, results, nil
}

// ScalingPoint is one Figure 5B data point.
type ScalingPoint struct {
	Pairs   int
	Runtime time.Duration
}

// Fig5B measures DM+EE runtime with the full rule set as the number of
// candidate pairs grows — the paper's linear-scaling figure.
func Fig5B(task *Task, fractions []float64) (*Table, []ScalingPoint, error) {
	if len(fractions) == 0 {
		fractions = []float64{0.2, 0.4, 0.6, 0.8, 1.0}
	}
	all := task.Pairs()
	var results []ScalingPoint
	for _, f := range fractions {
		n := int(f * float64(len(all)))
		if n < 1 {
			n = 1
		}
		pairs := all[:n]
		c, err := task.CompileSubset(len(task.Rules))
		if err != nil {
			return nil, nil, err
		}
		m := core.NewMatcher(c, pairs)
		results = append(results, ScalingPoint{Pairs: n, Runtime: timeIt(func() { m.Match() })})
	}
	out := &Table{
		Title:  fmt.Sprintf("Figure 5B: runtime (ms) vs candidate pairs, all %d rules, %s", len(task.Rules), task.DS.Name),
		Header: []string{"Pairs", "DM+EE"},
	}
	for _, r := range results {
		out.AddRow(fmt.Sprint(r.Pairs), ms(r.Runtime))
	}
	out.Notes = append(out.Notes, "cost grows linearly in the number of pairs (cost model assumption, §7.5)")
	return out, results, nil
}

// AddRulePoint is one Figure 5C data point: the time to incorporate the
// k-th rule under the precompute-variation versus fully incremental.
type AddRulePoint struct {
	K           int
	Precompute  time.Duration // re-run all rules with warm memo + check-cache-first
	Incremental time.Duration // Algorithm 10: new rule over unmatched pairs only
	// PrecomputeWork and IncrementalWork are the same two steps' engine
	// work counters. Unlike the times they repeat exactly, so tests
	// compare the variations on them.
	PrecomputeWork  core.Stats
	IncrementalWork core.Stats
}

// Fig5C grows the rule set one rule at a time (k = 1..maxK) and
// measures, at each step, the cost of the "precomputation variation"
// (re-evaluating the whole function with the warm memo) versus the
// fully incremental Algorithm 10. Both sessions run their full runs on
// `workers` shard workers (core.NormalizeWorkers semantics); more than
// one attacks the paper's slow k=1 cold start.
func Fig5C(task *Task, maxK, workers int) (*Table, []AddRulePoint, error) {
	if maxK <= 0 || maxK > len(task.Rules) {
		maxK = len(task.Rules)
	}
	pairs := task.Pairs()
	// Both sessions start with rule 1: the fully incremental one grows
	// by Algorithm 10, the precompute-variation one by a full re-run
	// with the warm memo after each added rule.
	newSession := func() (*incremental.Session, error) {
		c, err := task.CompileSubset(1)
		if err != nil {
			return nil, err
		}
		s := incremental.NewSession(c, pairs)
		s.M.Workers = workers
		return s, nil
	}
	inc, err := newSession()
	if err != nil {
		return nil, nil, err
	}
	pre, err := newSession()
	if err != nil {
		return nil, nil, err
	}
	t0, err := timeRun(inc)
	if err != nil {
		return nil, nil, err
	}
	t0p, err := timeRun(pre)
	if err != nil {
		return nil, nil, err
	}
	results := []AddRulePoint{{K: 1, Precompute: t0p, Incremental: t0,
		PrecomputeWork: pre.LastOp.Stats, IncrementalWork: inc.LastOp.Stats}}
	for k := 2; k <= maxK; k++ {
		r := task.Rules[k-1]
		dInc := timeIt(func() { err = inc.AddRule(r) })
		if err != nil {
			return nil, nil, err
		}
		if err := pre.M.C.AddRule(r); err != nil {
			return nil, nil, err
		}
		dPre, err := timeRun(pre)
		if err != nil {
			return nil, nil, err
		}
		results = append(results, AddRulePoint{K: k, Precompute: dPre, Incremental: dInc,
			PrecomputeWork: pre.LastOp.Stats, IncrementalWork: inc.LastOp.Stats})
	}
	if err := inc.Verify(); err != nil {
		return nil, nil, fmt.Errorf("bench: incremental state diverged: %w", err)
	}
	out := &Table{
		Title:  fmt.Sprintf("Figure 5C: add-rule iteration time (ms), %s", task.DS.Name),
		Header: []string{"k (rules)", "precompute-variation", "fully incremental"},
	}
	for _, r := range results {
		out.AddRow(fmt.Sprint(r.K), ms(r.Precompute), ms(r.Incremental))
	}
	out.Notes = append(out.Notes, "k=1 is the cold start (empty memo): both variations are slow, as in the paper",
		fmt.Sprintf("full runs sharded over %d worker(s)", core.NormalizeWorkers(workers)))
	return out, results, nil
}
