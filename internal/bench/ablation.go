package bench

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"rulematch/internal/core"
	"rulematch/internal/costmodel"
	"rulematch/internal/estimate"
	"rulematch/internal/order"
)

// AblationCheckCacheFirst measures the §5.4.3 runtime predicate
// reordering on and off, after Algorithm 6 rule ordering.
func AblationCheckCacheFirst(task *Task) (*Table, error) {
	pairs := task.Pairs()
	frac := sampleFracFor(len(pairs))
	out := &Table{
		Title:  fmt.Sprintf("Ablation: check-cache-first (§5.4.3), %s", task.DS.Name),
		Header: []string{"CheckCacheFirst", "runtime ms", "feature computes", "memo hits"},
	}
	for _, on := range []bool{false, true} {
		c, err := task.CompileSubset(len(task.Rules))
		if err != nil {
			return nil, err
		}
		est := estimate.New(c, pairs, frac, 3)
		order.GreedyReduction(c, costmodel.New(c, est))
		m := core.NewMatcher(c, pairs)
		m.CheckCacheFirst = on
		d := timeIt(func() { m.Match() })
		out.AddRow(fmt.Sprint(on), ms(d), fmt.Sprint(m.Stats.FeatureComputes), fmt.Sprint(m.Stats.MemoHits))
	}
	return out, nil
}

// AblationSampleSize sweeps the estimation sample fraction (paper §7.5:
// 1% suffices) and reports the resulting Algorithm 6 matching runtime
// plus estimation overhead.
func AblationSampleSize(task *Task, fracs []float64) (*Table, error) {
	if len(fracs) == 0 {
		fracs = []float64{0.001, 0.005, 0.01, 0.05, 0.1}
	}
	pairs := task.Pairs()
	out := &Table{
		Title:  fmt.Sprintf("Ablation: estimation sample size (§7.5), %s", task.DS.Name),
		Header: []string{"Sample frac", "sample pairs", "estimate ms", "order ms", "match ms"},
	}
	for _, frac := range fracs {
		c, err := task.CompileSubset(len(task.Rules))
		if err != nil {
			return nil, err
		}
		var est *estimate.Estimates
		dEst := timeIt(func() { est = estimate.New(c, pairs, frac, 3) })
		model := costmodel.New(c, est)
		dOrd := timeIt(func() { order.GreedyReduction(c, model) })
		m := core.NewMatcher(c, pairs)
		dMatch := timeIt(func() { m.Match() })
		out.AddRow(fmt.Sprintf("%g", frac), fmt.Sprint(est.SampleSize()), ms(dEst), ms(dOrd), ms(dMatch))
	}
	return out, nil
}

// AblationPredicateOrder compares within-rule predicate orderings:
// as-mined, Lemma 1 (ignores feature sharing) and Lemma 3 (groups
// shared features), all with the mined rule order.
func AblationPredicateOrder(task *Task) (*Table, error) {
	pairs := task.Pairs()
	frac := sampleFracFor(len(pairs))
	out := &Table{
		Title:  fmt.Sprintf("Ablation: within-rule predicate ordering, %s", task.DS.Name),
		Header: []string{"Ordering", "runtime ms", "feature computes"},
	}
	configs := []struct {
		name  string
		apply func(c *core.Compiled, m *costmodel.Model)
	}{
		{"as mined", nil},
		{"lemma 1", order.PredicatesLemma1},
		{"lemma 3", order.PredicatesLemma3},
	}
	for _, cfg := range configs {
		c, err := task.CompileSubset(len(task.Rules))
		if err != nil {
			return nil, err
		}
		if cfg.apply != nil {
			est := estimate.New(c, pairs, frac, 3)
			cfg.apply(c, costmodel.New(c, est))
		}
		m := core.NewMatcher(c, pairs)
		d := timeIt(func() { m.Match() })
		out.AddRow(cfg.name, ms(d), fmt.Sprint(m.Stats.FeatureComputes))
	}
	return out, nil
}

// AblationAlphaVariants compares the published α recursion against the
// reach-weighted refinement on cost-model accuracy (relative error of
// the estimated DM+EE runtime).
func AblationAlphaVariants(task *Task, ruleCounts []int) (*Table, error) {
	pairs := task.Pairs()
	frac := sampleFracFor(len(pairs))
	out := &Table{
		Title:  fmt.Sprintf("Ablation: alpha recursion variants (Eq. 2), %s", task.DS.Name),
		Header: []string{"Rules", "actual ms", "model(reach-aware) ms", "model(paper) ms"},
	}
	for _, n := range ruleCounts {
		if n > len(task.Rules) {
			continue
		}
		c, err := task.CompileRandomSubset(n, 7)
		if err != nil {
			return nil, err
		}
		est := estimate.New(c, pairs, frac, 7)
		model := costmodel.New(c, est)
		reachAware := time.Duration(model.CostDM() * float64(len(pairs)) * float64(time.Second))
		model.PaperAlpha = true
		paper := time.Duration(model.CostDM() * float64(len(pairs)) * float64(time.Second))
		m := core.NewMatcher(c, pairs)
		actual := timeIt(func() { m.Match() })
		out.AddRow(fmt.Sprint(n), ms(actual), ms(reachAware), ms(paper))
	}
	return out, nil
}

// AblationValueCache measures the value-level cache (Matcher.ValueCache)
// — the paper's Algorithm 2 stores similarity results keyed by attribute
// value pairs, which collapses computations across candidate pairs that
// repeat values.
func AblationValueCache(task *Task) (*Table, error) {
	c, err := task.CompileSubset(len(task.Rules))
	if err != nil {
		return nil, err
	}
	pairs := task.Pairs()
	out := &Table{
		Title:  fmt.Sprintf("Ablation: value-level cache (Alg. 2 storage scheme), %s", task.DS.Name),
		Header: []string{"ValueCache", "runtime ms", "feature computes", "value hits"},
	}
	for _, on := range []bool{false, true} {
		m := core.NewMatcher(c, pairs)
		m.ValueCache = on
		d := timeIt(func() { m.Match() })
		out.AddRow(fmt.Sprint(on), ms(d), fmt.Sprint(m.Stats.FeatureComputes), fmt.Sprint(m.Stats.ValueCacheHits))
	}
	out.Notes = append(out.Notes,
		"pays off only when distinct pairs repeat the same value combination; without such duplication the extra hashing is pure overhead")
	return out, nil
}

// AblationParallel measures the sharded runs over worker counts
// against the serial Match baseline (Algorithm 4): MatchParallelCtx
// (match marks only) and MatchStateParallelCtx (full incremental
// state, the Fig 5C cold-start task).
func AblationParallel(task *Task) (*Table, error) {
	c, err := task.CompileSubset(len(task.Rules))
	if err != nil {
		return nil, err
	}
	pairs := task.Pairs()
	out := &Table{
		Title:  fmt.Sprintf("Ablation: parallel matching workers, %s", task.DS.Name),
		Header: []string{"Workers", "marks-only ms", "materialize ms", "materialize speedup"},
	}
	mSer := core.NewMatcher(c, pairs)
	serial := timeIt(func() { mSer.Match() })
	out.AddRow("serial", "-", ms(serial), "1.00x")
	for _, w := range []int{1, 2, 4, 8} {
		m := core.NewMatcher(c, pairs)
		dMarks := timeIt(func() { _, err = m.MatchParallelCtx(context.TODO(), w) })
		if err != nil {
			return nil, err
		}
		mSt := core.NewMatcher(c, pairs)
		dState := timeIt(func() { _, err = mSt.MatchStateParallelCtx(context.TODO(), w) })
		if err != nil {
			return nil, err
		}
		speedup := "-"
		if dState > 0 {
			speedup = fmt.Sprintf("%.2fx", serial.Seconds()/dState.Seconds())
		}
		out.AddRow(fmt.Sprint(w), ms(dMarks), ms(dState), speedup)
	}
	out.Notes = append(out.Notes,
		fmt.Sprintf("machine has %d CPU(s) (GOMAXPROCS %d); speedup requires more cores",
			runtime.NumCPU(), runtime.GOMAXPROCS(0)))
	return out, nil
}

// AblationBatch compares the pair-at-a-time Match (the "scalar" row)
// against the columnar batch engine (serial, across block sizes) and
// the batch engine sharded over workers, on the full materializing
// run. The parity column asserts the batch state is byte-identical to
// the Match reference — the invariant the engine is built on.
func AblationBatch(task *Task) (*Table, error) {
	c, err := task.CompileSubset(len(task.Rules))
	if err != nil {
		return nil, err
	}
	pairs := task.Pairs()
	out := &Table{
		Title:  fmt.Sprintf("Ablation: batch execution engine, %s", task.DS.Name),
		Header: []string{"Engine", "materialize ms", "speedup", "feature computes", "parity"},
	}
	mRef := core.NewMatcher(c, pairs)
	var ref *core.MatchState
	serial := timeIt(func() { ref = mRef.Match() })
	out.AddRow("scalar", ms(serial), "1.00x", fmt.Sprint(mRef.Stats.FeatureComputes), "ref")
	row := func(name string, run func(m *core.Matcher) *core.MatchState, m *core.Matcher) {
		var st *core.MatchState
		d := timeIt(func() { st = run(m) })
		speedup := "-"
		if d > 0 {
			speedup = fmt.Sprintf("%.2fx", serial.Seconds()/d.Seconds())
		}
		parity := "OK"
		if !st.Equal(ref) {
			parity = "DIVERGED"
		}
		out.AddRow(name, ms(d), speedup, fmt.Sprint(m.Stats.FeatureComputes), parity)
	}
	for _, bs := range []int{256, 1024, 4096} {
		m := core.NewMatcher(c, pairs)
		m.BlockSize = bs
		row(fmt.Sprintf("batch/%d", bs), (*core.Matcher).MatchState, m)
	}
	for _, w := range []int{2, 4, 8} {
		m := core.NewMatcher(c, pairs)
		row(fmt.Sprintf("batch+par/%d", w), func(m *core.Matcher) *core.MatchState {
			st, _ := m.MatchStateParallelCtx(context.TODO(), w) // never cancelled, so no error
			return st
		}, m)
	}
	out.Notes = append(out.Notes,
		"parity: batch MatchState byte-identical to the scalar reference (match marks, rule sets, per-predicate false bits)",
		fmt.Sprintf("machine has %d CPU(s) (GOMAXPROCS %d)", runtime.NumCPU(), runtime.GOMAXPROCS(0)))
	return out, nil
}

// AblationAdaptive compares the static Algorithm 6 order against the
// §5.4.3 adaptive re-ordering (measured-α greedy every ~5% of pairs).
func AblationAdaptive(task *Task) (*Table, error) {
	pairs := task.Pairs()
	frac := sampleFracFor(len(pairs))
	out := &Table{
		Title:  fmt.Sprintf("Ablation: adaptive rule re-ordering (§5.4.3), %s", task.DS.Name),
		Header: []string{"Mode", "runtime ms", "feature computes"},
	}
	{
		c, err := task.CompileSubset(len(task.Rules))
		if err != nil {
			return nil, err
		}
		est := estimate.New(c, pairs, frac, 3)
		order.GreedyReduction(c, costmodel.New(c, est))
		m := core.NewMatcher(c, pairs)
		d := timeIt(func() { m.Match() })
		out.AddRow("static alg6", ms(d), fmt.Sprint(m.Stats.FeatureComputes))
	}
	{
		c, err := task.CompileSubset(len(task.Rules))
		if err != nil {
			return nil, err
		}
		est := estimate.New(c, pairs, frac, 3)
		model := costmodel.New(c, est)
		order.PredicatesLemma3(c, model)
		m := core.NewMatcher(c, pairs)
		d := timeIt(func() { order.MatchAdaptive(m, model, 0) })
		out.AddRow("adaptive", ms(d), fmt.Sprint(m.Stats.FeatureComputes))
	}
	return out, nil
}

// AblationProfileCache measures per-record profile caching: profiled
// similarities (token sets, count vectors, TF-IDF weights) skip
// re-tokenizing each record's values for every pair it appears in.
func AblationProfileCache(task *Task) (*Table, error) {
	pairs := task.Pairs()
	out := &Table{
		Title:  fmt.Sprintf("Ablation: per-record profile cache, %s", task.DS.Name),
		Header: []string{"Profiles", "cold run ms", "profile entries"},
	}
	for _, on := range []bool{false, true} {
		c, err := task.CompileSubset(len(task.Rules))
		if err != nil {
			return nil, err
		}
		if on {
			c.EnableProfileCache()
		}
		m := core.NewMatcher(c, pairs)
		d := timeIt(func() { m.Match() })
		out.AddRow(fmt.Sprint(on), ms(d), fmt.Sprint(c.ProfileEntries()))
	}
	out.Notes = append(out.Notes, "profiles are built on each feature's first compute, inside the cold run")
	return out, nil
}
