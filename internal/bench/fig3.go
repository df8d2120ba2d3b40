package bench

import (
	"fmt"
	"time"

	"rulematch/internal/core"
	"rulematch/internal/costmodel"
	"rulematch/internal/estimate"
	"rulematch/internal/order"
)

// StrategyTiming is one Figure 3A data point: average runtime per
// strategy at a rule-set size. Zero durations mean "skipped" (the
// rudimentary baseline becomes unreasonably slow at larger sizes, as in
// the paper where it exceeds 10 minutes by 20 rules).
type StrategyTiming struct {
	Rules          int
	Rudimentary    time.Duration
	EarlyExit      time.Duration
	ProdPrecompute time.Duration
	FullPrecompute time.Duration
	DynamicMemo    time.Duration
	// The *Work fields are each strategy's engine work counters,
	// summed over the draws (zero when skipped). Unlike the times they
	// repeat exactly, so tests compare strategies on them.
	RudimentaryWork    core.Stats
	EarlyExitWork      core.Stats
	ProdPrecomputeWork core.Stats
	FullPrecomputeWork core.Stats
	DynamicMemoWork    core.Stats
}

// Fig3AConfig bounds the expensive baselines.
type Fig3AConfig struct {
	RuleCounts []int
	Draws      int // random rule-set draws per data point (paper: 3)
	// MaxRudimentary and MaxEarlyExit cap the rule counts at which the
	// unmemoized baselines run (0 = always run).
	MaxRudimentary int
	MaxEarlyExit   int
}

// Fig3A measures matching runtime for increasingly large rule sets
// under the five strategies of the paper's Figure 3A: rudimentary (R),
// early exit (EE), production precompute + EE (PPR+EE), full precompute
// + EE (FPR+EE), and dynamic memoing + EE (DM+EE).
func Fig3A(task *Task, cfg Fig3AConfig) (*Table, []StrategyTiming, error) {
	if cfg.Draws <= 0 {
		cfg.Draws = 3
	}
	pairs := task.Pairs()
	var results []StrategyTiming
	for _, n := range cfg.RuleCounts {
		if n > len(task.Rules) {
			continue
		}
		var sum StrategyTiming
		sum.Rules = n
		for d := 0; d < cfg.Draws; d++ {
			c, err := task.CompileRandomSubset(n, int64(d)*101+7)
			if err != nil {
				return nil, nil, err
			}
			used := c.UsedFeatureIndexes()
			// Bind the full pool so FPR has something extra to precompute.
			var all []int
			for _, f := range task.DS.Domain.FeaturePool() {
				fi, err := c.BindFeature(f)
				if err != nil {
					return nil, nil, err
				}
				all = append(all, fi)
			}
			if cfg.MaxRudimentary == 0 || n <= cfg.MaxRudimentary {
				m := &core.Matcher{C: c, Pairs: pairs}
				sum.Rudimentary += timeIt(func() { m.MatchRudimentary() })
				sum.RudimentaryWork.Add(m.Stats)
			}
			if cfg.MaxEarlyExit == 0 || n <= cfg.MaxEarlyExit {
				m := &core.Matcher{C: c, Pairs: pairs}
				sum.EarlyExit += timeIt(func() { m.Match() })
				sum.EarlyExitWork.Add(m.Stats)
			}
			ppr := core.NewMatcher(c, pairs)
			sum.ProdPrecompute += timeIt(func() {
				ppr.Precompute(used)
				ppr.Match()
			})
			sum.ProdPrecomputeWork.Add(ppr.Stats)
			fpr := core.NewMatcher(c, pairs)
			sum.FullPrecompute += timeIt(func() {
				fpr.Precompute(all)
				fpr.Match()
			})
			sum.FullPrecomputeWork.Add(fpr.Stats)
			dm := core.NewMatcher(c, pairs)
			sum.DynamicMemo += timeIt(func() { dm.Match() })
			sum.DynamicMemoWork.Add(dm.Stats)
		}
		d := time.Duration(cfg.Draws)
		sum.Rudimentary /= d
		sum.EarlyExit /= d
		sum.ProdPrecompute /= d
		sum.FullPrecompute /= d
		sum.DynamicMemo /= d
		results = append(results, sum)
	}
	out := &Table{
		Title: fmt.Sprintf("Figure 3A: runtime (ms) vs rule-set size, %s, %d pairs",
			task.DS.Name, len(pairs)),
		Header: []string{"Rules", "R", "EE", "PPR+EE", "FPR+EE", "DM+EE"},
	}
	for _, r := range results {
		out.AddRow(fmt.Sprint(r.Rules), msOrDash(r.Rudimentary), msOrDash(r.EarlyExit),
			ms(r.ProdPrecompute), ms(r.FullPrecompute), ms(r.DynamicMemo))
	}
	out.Notes = append(out.Notes, "'-' marks baselines skipped past their cap (paper: R exceeds 10 min by 20 rules)")
	return out, results, nil
}

// Fig3B renders the zoom-in of Figure 3A: only the memoized strategies.
func Fig3B(task *Task, results []StrategyTiming) *Table {
	out := &Table{
		Title:  fmt.Sprintf("Figure 3B: zoom of 3A (memoized strategies), %s", task.DS.Name),
		Header: []string{"Rules", "PPR+EE", "FPR+EE", "DM+EE"},
	}
	for _, r := range results {
		out.AddRow(fmt.Sprint(r.Rules), ms(r.ProdPrecompute), ms(r.FullPrecompute), ms(r.DynamicMemo))
	}
	return out
}

func msOrDash(d time.Duration) string {
	if d == 0 {
		return "-"
	}
	return ms(d)
}

// OrderingTiming is one Figure 3C data point.
type OrderingTiming struct {
	Rules                          int
	Random, Alg5, Alg6             time.Duration
	OrderOverhead5, OrderOverhead6 time.Duration
}

// Fig3C measures DM+EE matching runtime under random ordering versus
// the Algorithm 5 and Algorithm 6 greedy orderings (paper Figure 3C).
// Estimation uses a small sample per §5.5; ordering overhead is
// reported separately (the paper's runtimes are matching only).
func Fig3C(task *Task, ruleCounts []int, draws int) (*Table, []OrderingTiming, error) {
	if draws <= 0 {
		draws = 3
	}
	pairs := task.Pairs()
	frac := sampleFracFor(len(pairs))
	var results []OrderingTiming
	for _, n := range ruleCounts {
		if n > len(task.Rules) {
			continue
		}
		var sum OrderingTiming
		sum.Rules = n
		for d := 0; d < draws; d++ {
			seed := int64(d)*101 + 7
			run := func(apply func(c *core.Compiled, m *costmodel.Model)) (time.Duration, time.Duration, error) {
				c, err := task.CompileRandomSubset(n, seed)
				if err != nil {
					return 0, 0, err
				}
				est := estimate.New(c, pairs, frac, seed)
				model := costmodel.New(c, est)
				var overhead time.Duration
				if apply != nil {
					overhead = timeIt(func() { apply(c, model) })
				} else {
					order.Shuffle(c, seed)
				}
				m := core.NewMatcher(c, pairs)
				m.CheckCacheFirst = true
				return timeIt(func() { m.Match() }), overhead, nil
			}
			r, _, err := run(nil)
			if err != nil {
				return nil, nil, err
			}
			a5, o5, err := run(order.GreedyCost)
			if err != nil {
				return nil, nil, err
			}
			a6, o6, err := run(order.GreedyReduction)
			if err != nil {
				return nil, nil, err
			}
			sum.Random += r
			sum.Alg5 += a5
			sum.Alg6 += a6
			sum.OrderOverhead5 += o5
			sum.OrderOverhead6 += o6
		}
		dd := time.Duration(draws)
		results = append(results, OrderingTiming{
			Rules: n, Random: sum.Random / dd, Alg5: sum.Alg5 / dd, Alg6: sum.Alg6 / dd,
			OrderOverhead5: sum.OrderOverhead5 / dd, OrderOverhead6: sum.OrderOverhead6 / dd,
		})
	}
	out := &Table{
		Title:  fmt.Sprintf("Figure 3C: DM+EE runtime (ms) by rule/predicate ordering, %s", task.DS.Name),
		Header: []string{"Rules", "Random", "Alg5", "Alg6", "order-ovh5", "order-ovh6"},
	}
	for _, r := range results {
		out.AddRow(fmt.Sprint(r.Rules), ms(r.Random), ms(r.Alg5), ms(r.Alg6),
			ms(r.OrderOverhead5), ms(r.OrderOverhead6))
	}
	return out, results, nil
}
