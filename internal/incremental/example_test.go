package incremental_test

import (
	"context"
	"fmt"

	"rulematch/internal/core"
	"rulematch/internal/incremental"
	"rulematch/internal/rule"
	"rulematch/internal/sim"
	"rulematch/internal/table"
)

func Example() {
	a := table.MustNew("A", []string{"name"})
	b := table.MustNew("B", []string{"name"})
	a.Append("a1", "matthew richardson")
	a.Append("a2", "john smith")
	b.Append("b1", "matt richardson")
	b.Append("b2", "jon smith")

	f, _ := rule.ParseFunction("rule r1: jaro_winkler(name, name) >= 0.95")
	c, err := core.Compile(f, sim.Standard(), a, b)
	if err != nil {
		panic(err)
	}
	pairs := []table.Pair{{A: 0, B: 0}, {A: 0, B: 1}, {A: 1, B: 0}, {A: 1, B: 1}}

	s := incremental.NewSession(c, pairs)
	// The one cold run; everything after is incremental.
	if err := s.Run(context.Background()); err != nil {
		panic(err)
	}
	fmt.Println("initial matches:", s.MatchCount())

	// The threshold is too strict — relax it. Only the pairs whose
	// recorded failure involved this predicate are re-examined, against
	// the warm memo.
	if err := s.RelaxPredicate(0, 0, 0.85); err != nil {
		panic(err)
	}
	fmt.Println("after relaxing:", s.MatchCount())

	// Add a phone-book style fallback rule; only currently unmatched
	// pairs are evaluated, and only against the new rule.
	r, _ := rule.ParseRule("r2: soundex(name, name) >= 0.5")
	if err := s.AddRule(r); err != nil {
		panic(err)
	}
	fmt.Println("after adding r2:", s.MatchCount())
	// Output:
	// initial matches: 1
	// after relaxing: 2
	// after adding r2: 2
}
