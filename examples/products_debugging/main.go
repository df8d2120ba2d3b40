// Products debugging session: the analyst loop of the paper's
// Figure 1, driven programmatically. Generates the synthetic products
// dataset, starts from hand-written rules, inspects quality, and makes
// incremental refinements — each applied in micro/milliseconds thanks to
// dynamic memoing and the Section 6 incremental algorithms.
//
//	go run ./examples/products_debugging
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"rulematch/internal/core"
	"rulematch/internal/datagen"
	"rulematch/internal/incremental"
	"rulematch/internal/quality"
	"rulematch/internal/rule"
	"rulematch/internal/sim"
)

func main() {
	// A scaled-down Walmart/Amazon-shaped products task.
	cfg := datagen.StandardConfig(datagen.Products(), 0.03)
	ds, err := datagen.Generate(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("dataset: %d + %d records, %d candidate pairs, %d gold matches\n",
		ds.A.Len(), ds.B.Len(), len(ds.Pairs), len(ds.Gold))

	f, err := rule.ParseFunction(ds.Domain.SampleRules())
	if err != nil {
		log.Fatal(err)
	}
	c, err := core.Compile(f, sim.Standard(), ds.A, ds.B)
	if err != nil {
		log.Fatal(err)
	}
	s := incremental.NewSession(c, ds.Pairs)

	report := func(step string, d time.Duration) {
		rep := quality.Evaluate(ds.Pairs, s.St.Matched, ds.Gold, nil)
		fmt.Printf("%-42s %8v  P=%.3f R=%.3f F1=%.3f (%d matches)\n",
			step, d.Round(time.Microsecond), rep.Precision(), rep.Recall(), rep.F1(), s.MatchCount())
	}

	// Iteration 0: first full run (cold memo) — the only slow step.
	start := time.Now()
	if err := s.Run(context.Background()); err != nil {
		log.Fatal(err)
	}
	report("initial run (3 rules, cold memo)", time.Since(start))

	// Iteration 1: explore a looser title threshold on r1.
	start = time.Now()
	if err := s.RelaxPredicate(0, 1, 0.25); err != nil {
		log.Fatal(err)
	}
	report("relax r1 jaccard(title) 0.4 -> 0.25", time.Since(start))

	// Iteration 2: guard the looser rule with a brand agreement check.
	p, err := rule.ParsePredicate("jaro_winkler(brand, brand) >= 0.75")
	if err != nil {
		log.Fatal(err)
	}
	start = time.Now()
	if err := s.AddPredicate(0, p); err != nil {
		log.Fatal(err)
	}
	report("add brand check to r1", time.Since(start))

	// Iteration 3: cover model-number matches the title rules miss.
	r, err := rule.ParseRule("r4: levenshtein(modelno, modelno) >= 0.85 and jaccard(title, title) >= 0.15")
	if err != nil {
		log.Fatal(err)
	}
	start = time.Now()
	if err := s.AddRule(r); err != nil {
		log.Fatal(err)
	}
	report("add model-number rule r4", time.Since(start))

	// Iteration 4: try dropping the TF-IDF rule — maybe it's dead weight?
	dropped := s.M.C.Function().Rules[2]
	start = time.Now()
	if err := s.RemoveRule(2); err != nil {
		log.Fatal(err)
	}
	report("drop rule r3 (tf_idf)", time.Since(start))

	// Iteration 5: recall fell — r3 was pulling its weight. Revert.
	// This inspect-regress-revert loop is exactly why each step must be
	// interactive.
	start = time.Now()
	if err := s.AddRule(dropped); err != nil {
		log.Fatal(err)
	}
	report("oops, recall dropped — re-add r3", time.Since(start))

	memo, bitmaps := s.MemoryBytes()
	fmt.Printf("\nstate kept across iterations: %.2f MB memo (%d values), %.2f MB bitmaps\n",
		float64(memo)/1e6, s.M.Memo.Entries(), float64(bitmaps)/1e6)
	fmt.Printf("cumulative engine work: %d feature computes, %d memo hits\n",
		s.M.Stats.FeatureComputes, s.M.Stats.MemoHits)
	fmt.Println("\nfinal rule set:")
	fmt.Println(s.M.C.Function().String())
}
