// Triage: the inspection half of the debugging loop. Mines rules for
// the video-games dataset, then uses the analyst tooling to find what
// to fix: per-rule quality attribution, rule-set lint, a per-pair
// explanation of a false negative, a suggested fix, and a threshold
// sweep to pick the right value.
//
//	go run ./examples/triage
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"rulematch/internal/bench"
	"rulematch/internal/datagen"
	"rulematch/internal/explain"
	"rulematch/internal/incremental"
	"rulematch/internal/quality"
	"rulematch/internal/rule"
)

func main() {
	task, err := bench.PrepareTask(datagen.VideoGames(), 0.08, 20)
	if err != nil {
		log.Fatal(err)
	}
	c, err := task.CompileSubset(len(task.Rules))
	if err != nil {
		log.Fatal(err)
	}
	s := incremental.NewSession(c, task.Pairs())
	if err := s.Run(context.Background()); err != nil {
		log.Fatal(err)
	}
	rep := quality.Evaluate(task.Pairs(), s.St.Matched, task.DS.Gold, nil)
	fmt.Printf("start: %d rules, P=%.3f R=%.3f F1=%.3f\n\n",
		len(c.Rules), rep.Precision(), rep.Recall(), rep.F1())

	// 1. Which rules let noise in? Rank by owned false positives.
	names := make([]string, len(c.Rules))
	for i, r := range c.Rules {
		names[i] = r.Name
	}
	fmt.Println("rules owning false positives:")
	worst := -1
	for i, q := range quality.PerRule(task.Pairs(), names, s.St.RuleTrue, task.DS.Gold) {
		if q.OwnedFP > 0 {
			fmt.Printf("  %-6s owns %3d pairs, %d false positives (precision %.2f)\n",
				q.Name, q.Owned, q.OwnedFP, q.Precision())
			if worst < 0 {
				worst = i
			}
		}
	}

	// 2. Any dead weight in the rule set?
	if findings := rule.Lint(c.Function()); len(findings) > 0 {
		fmt.Println("\nlint findings:")
		for _, fd := range findings {
			fmt.Println("  " + fd.String())
		}
	} else {
		fmt.Println("\nlint: rule set is clean")
	}

	// 3. Explain one missed gold pair and ask for a fix.
	var missed int = -1
	for _, pi := range task.DS.GoldBits() {
		if !s.Matched(pi) {
			missed = pi
			break
		}
	}
	if missed >= 0 {
		fmt.Println("\nexplaining a missed gold pair:")
		e := explain.Pair(c, task.Pairs()[missed])
		e.Format(os.Stdout, task.DS.A, task.DS.B)
		if sg := e.Suggest(); sg != nil {
			fmt.Printf("suggested fix for %s:\n", sg.Rule)
			for _, ch := range sg.Changes {
				fmt.Printf("  %s %s %.4g -> %.4g\n", ch.Feature, ch.Op, ch.OldThreshold, ch.NewThreshold)
			}
		}
	} else {
		// Recall is perfect; explain a false positive instead — why did
		// this non-gold pair match, and through which rule?
		for pi := range task.Pairs() {
			if s.Matched(pi) && !task.DS.Gold[task.Pairs()[pi].PairKey()] {
				fmt.Println("\nno gold pairs missed; explaining a false positive instead:")
				explain.Pair(c, task.Pairs()[pi]).Format(os.Stdout, task.DS.A, task.DS.B)
				break
			}
		}
	}

	// 4. Sweep a threshold of the noisiest rule before committing to it.
	if worst >= 0 {
		fmt.Printf("\nthreshold sweep on %s predicate 0:\n", c.Rules[worst].Name)
		points, err := s.SweepThresholdParallelCtx(context.Background(), worst, 0, incremental.DefaultSweep(5), s.M.Workers)
		if err != nil {
			log.Fatal(err)
		}
		for _, pt := range points {
			r := quality.Evaluate(task.Pairs(), pt.Matched, task.DS.Gold, nil)
			fmt.Printf("  thr %.2f: %4d matches, F1=%.3f\n", pt.Threshold, pt.Matched.Count(), r.F1())
		}
	}
}
