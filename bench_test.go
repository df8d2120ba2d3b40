// Benchmarks regenerating every table and figure of the paper's
// evaluation (see DESIGN.md for the experiment index). Each benchmark
// exercises the operation the corresponding table/figure times, on a
// scaled-down products task; run cmd/embench for the full printed
// tables and sweeps.
//
//	go test -bench=. -benchmem
package rulematch

import (
	"context"
	"sync"
	"testing"

	"rulematch/internal/bench"
	"rulematch/internal/core"
	"rulematch/internal/costmodel"
	"rulematch/internal/datagen"
	"rulematch/internal/estimate"
	"rulematch/internal/incremental"
	"rulematch/internal/order"
	"rulematch/internal/rule"
	"rulematch/internal/sim"
)

const benchScale = 0.02

var (
	taskOnce sync.Once
	taskVal  *bench.Task
	taskErr  error
)

// benchTask prepares the shared products task once.
func benchTask(b testing.TB) *bench.Task {
	b.Helper()
	taskOnce.Do(func() {
		taskVal, taskErr = bench.PrepareTask(datagen.Products(), benchScale, 0)
	})
	if taskErr != nil {
		b.Fatal(taskErr)
	}
	return taskVal
}

// mustRun runs the session's full materializing run.
func mustRun(tb testing.TB, s *incremental.Session) {
	tb.Helper()
	if err := s.Run(context.Background()); err != nil {
		tb.Fatal(err)
	}
}

func compileN(b testing.TB, task *bench.Task, n int) *core.Compiled {
	b.Helper()
	c, err := task.CompileSubset(n)
	if err != nil {
		b.Fatal(err)
	}
	return c
}

// BenchmarkTable2Datasets measures dataset generation plus blocking for
// each domain (the substrate behind Table 2).
func BenchmarkTable2Datasets(b *testing.B) {
	for _, dom := range datagen.AllDomains() {
		b.Run(dom.Name(), func(b *testing.B) {
			cfg := datagen.StandardConfig(dom, 0.01)
			for i := 0; i < b.N; i++ {
				if _, err := datagen.Generate(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTable3FeatureCosts measures each Table 3 feature
// configuration on products record pairs — the per-feature μs column.
func BenchmarkTable3FeatureCosts(b *testing.B) {
	task := benchTask(b)
	configs := []rule.Feature{
		{Sim: "exact_match", AttrA: "modelno", AttrB: "modelno"},
		{Sim: "jaro", AttrA: "modelno", AttrB: "modelno"},
		{Sim: "jaro_winkler", AttrA: "modelno", AttrB: "modelno"},
		{Sim: "levenshtein", AttrA: "modelno", AttrB: "modelno"},
		{Sim: "cosine", AttrA: "modelno", AttrB: "title"},
		{Sim: "trigram", AttrA: "modelno", AttrB: "modelno"},
		{Sim: "jaccard", AttrA: "modelno", AttrB: "title"},
		{Sim: "soundex", AttrA: "modelno", AttrB: "modelno"},
		{Sim: "jaccard", AttrA: "title", AttrB: "title"},
		{Sim: "tf_idf", AttrA: "modelno", AttrB: "title"},
		{Sim: "tf_idf", AttrA: "title", AttrB: "title"},
		{Sim: "soft_tf_idf", AttrA: "modelno", AttrB: "title"},
		{Sim: "soft_tf_idf", AttrA: "title", AttrB: "title"},
	}
	c, err := core.Compile(rule.Function{}, sim.Standard(), task.DS.A, task.DS.B)
	if err != nil {
		b.Fatal(err)
	}
	pairs := task.Pairs()
	for _, f := range configs {
		fi, err := c.BindFeature(f)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(f.Key(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c.ComputeFeature(fi, pairs[i%len(pairs)])
			}
		})
	}
}

// BenchmarkFig3AStrategies measures one full matching pass per strategy
// at a fixed rule-set size (Figure 3A's per-point cost).
func BenchmarkFig3AStrategies(b *testing.B) {
	task := benchTask(b)
	const nRules = 20
	pairs := task.Pairs()
	b.Run("rudimentary", func(b *testing.B) {
		c := compileN(b, task, nRules)
		for i := 0; i < b.N; i++ {
			m := &core.Matcher{C: c, Pairs: pairs}
			m.MatchRudimentary()
		}
	})
	b.Run("early_exit", func(b *testing.B) {
		c := compileN(b, task, nRules)
		for i := 0; i < b.N; i++ {
			m := &core.Matcher{C: c, Pairs: pairs}
			m.Match()
		}
	})
	b.Run("production_precompute_ee", func(b *testing.B) {
		c := compileN(b, task, nRules)
		used := c.UsedFeatureIndexes()
		for i := 0; i < b.N; i++ {
			m := core.NewMatcher(c, pairs)
			m.Precompute(used)
			m.Match()
		}
	})
	b.Run("full_precompute_ee", func(b *testing.B) {
		c := compileN(b, task, nRules)
		var all []int
		for _, f := range task.DS.Domain.FeaturePool() {
			fi, err := c.BindFeature(f)
			if err != nil {
				b.Fatal(err)
			}
			all = append(all, fi)
		}
		for i := 0; i < b.N; i++ {
			m := core.NewMatcher(c, pairs)
			m.Precompute(all)
			m.Match()
		}
	})
	b.Run("dynamic_memo_ee", func(b *testing.B) {
		c := compileN(b, task, nRules)
		for i := 0; i < b.N; i++ {
			m := core.NewMatcher(c, pairs)
			m.Match()
		}
	})
}

// BenchmarkFig3COrdering measures cold matching passes under the three
// orderings of Figure 3C.
func BenchmarkFig3COrdering(b *testing.B) {
	task := benchTask(b)
	const nRules = 20
	pairs := task.Pairs()
	prep := func(b *testing.B, apply func(*core.Compiled, *costmodel.Model)) *core.Compiled {
		c := compileN(b, task, nRules)
		est := estimate.New(c, pairs, 0.05, 7)
		m := costmodel.New(c, est)
		if apply != nil {
			apply(c, m)
		} else {
			order.Shuffle(c, 7)
		}
		return c
	}
	for _, cfg := range []struct {
		name  string
		apply func(*core.Compiled, *costmodel.Model)
	}{
		{"random", nil},
		{"algorithm5", order.GreedyCost},
		{"algorithm6", order.GreedyReduction},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			c := prep(b, cfg.apply)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m := core.NewMatcher(c, pairs)
				m.CheckCacheFirst = true
				m.Match()
			}
		})
	}
}

// BenchmarkFig5ACostModel measures the cost model evaluation itself —
// the estimate the analyst gets "for free" before running (Figure 5A).
func BenchmarkFig5ACostModel(b *testing.B) {
	task := benchTask(b)
	c := compileN(b, task, 20)
	est := estimate.New(c, task.Pairs(), 0.05, 7)
	model := costmodel.New(c, est)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		model.CostDM()
	}
}

// BenchmarkFig5BScaling measures matching at two candidate-set sizes,
// exposing the linear scaling of Figure 5B.
func BenchmarkFig5BScaling(b *testing.B) {
	task := benchTask(b)
	for _, frac := range []struct {
		name string
		div  int
	}{{"quarter_pairs", 4}, {"all_pairs", 1}} {
		b.Run(frac.name, func(b *testing.B) {
			c := compileN(b, task, len(task.Rules))
			pairs := task.Pairs()[:len(task.Pairs())/frac.div]
			for i := 0; i < b.N; i++ {
				m := core.NewMatcher(c, pairs)
				m.Match()
			}
		})
	}
}

// BenchmarkFig5CAddRule compares incorporating one more rule via the
// fully incremental Algorithm 10 versus a full re-run on the warm memo.
func BenchmarkFig5CAddRule(b *testing.B) {
	task := benchTask(b)
	newSession := func(b *testing.B, n int) *incremental.Session {
		c := compileN(b, task, n)
		s := incremental.NewSession(c, task.Pairs())
		mustRun(b, s)
		return s
	}
	const base = 20
	extra := task.Rules[base]
	b.Run("fully_incremental", func(b *testing.B) {
		s := newSession(b, base)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := s.AddRule(extra); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			if err := s.RemoveRule(len(s.M.C.Rules) - 1); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
	})
	b.Run("precompute_variation", func(b *testing.B) {
		s := newSession(b, base)
		if err := s.AddRule(extra); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			mustRun(b, s)
		}
	})
}

// BenchmarkFig6Incremental measures each incremental change type
// (Figure 6 rows); every iteration applies the change and its inverse.
func BenchmarkFig6Incremental(b *testing.B) {
	task := benchTask(b)
	setup := func(b *testing.B) *incremental.Session {
		c := compileN(b, task, 25)
		s := incremental.NewSession(c, task.Pairs())
		mustRun(b, s)
		return s
	}
	pred := rule.Predicate{
		Feature:   rule.Feature{Sim: "jaro_winkler", AttrA: "brand", AttrB: "brand"},
		Op:        rule.Ge,
		Threshold: 0.6,
	}
	b.Run("add_remove_predicate", func(b *testing.B) {
		s := setup(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := s.AddPredicate(3, pred); err != nil {
				b.Fatal(err)
			}
			if err := s.RemovePredicate(3, len(s.M.C.Rules[3].Preds)-1); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("tighten_relax_threshold", func(b *testing.B) {
		s := setup(b)
		ri, pj := 0, 0
		for ri = range s.M.C.Rules {
			if s.M.C.Rules[ri].Preds[0].Op == rule.Ge && s.M.C.Rules[ri].Preds[0].Threshold < 0.8 {
				break
			}
		}
		old := s.M.C.Rules[ri].Preds[pj].Threshold
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := s.TightenPredicate(ri, pj, old+0.1); err != nil {
				b.Fatal(err)
			}
			if err := s.RelaxPredicate(ri, pj, old); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("remove_add_rule", func(b *testing.B) {
		// Times one full remove+re-add cycle of the last rule; after the
		// first (untimed) move-to-end the state is cyclic, so no rebuild
		// is needed between iterations.
		s := setup(b)
		r := s.M.C.Function().Rules[5]
		if err := s.RemoveRule(5); err != nil {
			b.Fatal(err)
		}
		if err := s.AddRule(r); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := s.RemoveRule(len(s.M.C.Rules) - 1); err != nil {
				b.Fatal(err)
			}
			if err := s.AddRule(r); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationCheckCacheFirst toggles the §5.4.3 runtime
// predicate reordering.
func BenchmarkAblationCheckCacheFirst(b *testing.B) {
	task := benchTask(b)
	c := compileN(b, task, 25)
	pairs := task.Pairs()
	for _, on := range []bool{false, true} {
		name := "off"
		if on {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m := core.NewMatcher(c, pairs)
				m.CheckCacheFirst = on
				m.Match()
			}
		})
	}
}

// BenchmarkAblationPredicateOrder compares within-rule predicate
// orderings (as-mined vs Lemma 1 vs Lemma 3).
func BenchmarkAblationPredicateOrder(b *testing.B) {
	task := benchTask(b)
	pairs := task.Pairs()
	for _, cfg := range []struct {
		name  string
		apply func(*core.Compiled, *costmodel.Model)
	}{
		{"as_mined", nil},
		{"lemma1", order.PredicatesLemma1},
		{"lemma3", order.PredicatesLemma3},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			c := compileN(b, task, 25)
			if cfg.apply != nil {
				est := estimate.New(c, pairs, 0.05, 7)
				cfg.apply(c, costmodel.New(c, est))
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m := core.NewMatcher(c, pairs)
				m.Match()
			}
		})
	}
}

// BenchmarkAblationSampleSize measures estimation cost at different
// sample fractions (§7.5: 1% suffices).
func BenchmarkAblationSampleSize(b *testing.B) {
	task := benchTask(b)
	for _, frac := range []struct {
		name string
		f    float64
	}{{"frac_1pct", 0.01}, {"frac_5pct", 0.05}, {"frac_20pct", 0.20}} {
		b.Run(frac.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c := compileN(b, task, 25)
				estimate.New(c, task.Pairs(), frac.f, 7)
			}
		})
	}
}

// BenchmarkAblationProfileCache measures matching with and without
// per-record profile caching (cache built outside the timer; its cost
// is amortized across sessions).
func BenchmarkAblationProfileCache(b *testing.B) {
	task := benchTask(b)
	pairs := task.Pairs()
	b.Run("off", func(b *testing.B) {
		c := compileN(b, task, 25)
		for i := 0; i < b.N; i++ {
			m := core.NewMatcher(c, pairs)
			m.Match()
		}
	})
	b.Run("on", func(b *testing.B) {
		c := compileN(b, task, 25)
		c.EnableProfileCache()
		c.BindRuleProfiles()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m := core.NewMatcher(c, pairs)
			m.Match()
		}
	})
}

// BenchmarkAblationValueCache measures the attribute-value-level cache.
func BenchmarkAblationValueCache(b *testing.B) {
	task := benchTask(b)
	pairs := task.Pairs()
	for _, on := range []bool{false, true} {
		name := "off"
		if on {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			c := compileN(b, task, 25)
			for i := 0; i < b.N; i++ {
				m := core.NewMatcher(c, pairs)
				m.ValueCache = on
				m.Match()
			}
		})
	}
}
