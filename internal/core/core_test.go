package core

import (
	"fmt"
	"math/rand"
	"testing"

	"rulematch/internal/rule"
	"rulematch/internal/sim"
	"rulematch/internal/table"
)

// fixture builds two small person tables and the full cross product of
// candidate pairs.
func fixture(t testing.TB) (*table.Table, *table.Table, []table.Pair) {
	t.Helper()
	a := table.MustNew("A", []string{"name", "phone", "city"})
	b := table.MustNew("B", []string{"name", "phone", "city"})
	rowsA := [][]string{
		{"matthew richardson", "206-453-1978", "seattle"},
		{"john smith", "608-263-1000", "madison"},
		{"maria garcia", "312-555-0148", "chicago"},
		{"wei chen", "414-555-0199", "milwaukee"},
	}
	rowsB := [][]string{
		{"matt richardson", "453 1978", "seattle"},
		{"jon smith", "608-263-1000", "madison"},
		{"mary garcia", "3125550148", "chicago"},
		{"alexandra cooper", "212-555-0101", "new york"},
		{"wei chen", "414-555-0199", "milwaukee"},
	}
	for i, r := range rowsA {
		if err := a.Append(fmt.Sprintf("a%d", i), r...); err != nil {
			t.Fatal(err)
		}
	}
	for i, r := range rowsB {
		if err := b.Append(fmt.Sprintf("b%d", i), r...); err != nil {
			t.Fatal(err)
		}
	}
	var pairs []table.Pair
	for i := range rowsA {
		for j := range rowsB {
			pairs = append(pairs, table.Pair{A: int32(i), B: int32(j)})
		}
	}
	return a, b, pairs
}

func mustCompile(t testing.TB, src string) (*Compiled, []table.Pair) {
	t.Helper()
	a, b, pairs := fixture(t)
	f, err := rule.ParseFunction(src)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compile(f, sim.Standard(), a, b)
	if err != nil {
		t.Fatal(err)
	}
	return c, pairs
}

const testFunc = `
rule r1: jaro_winkler(name, name) >= 0.9 and exact_match(city, city) >= 1
rule r2: levenshtein(phone, phone) >= 0.9 and jaccard(name, name) >= 0.3
rule r3: tf_idf(name, name) >= 0.99
`

func TestCompileBindsFeaturesOnce(t *testing.T) {
	c, _ := mustCompile(t, `
rule r1: jaro(name, name) >= 0.9 and jaro(name, name) < 0.99
rule r2: jaro(name, name) >= 0.5 and jaccard(name, name) >= 0.3`)
	if len(c.Features) != 2 {
		t.Fatalf("features = %d, want 2 (deduped)", len(c.Features))
	}
	if c.FeatureIndex("jaro(name,name)") < 0 || c.FeatureIndex("jaccard(name,name)") < 0 {
		t.Error("feature keys not indexed")
	}
	if c.FeatureIndex("nope(x,y)") != -1 {
		t.Error("unknown feature index not -1")
	}
}

func TestCompileValidates(t *testing.T) {
	a, b, _ := fixture(t)
	f, _ := rule.ParseFunction("rule r1: jaro(name, zipcode) >= 0.9")
	if _, err := Compile(f, sim.Standard(), a, b); err == nil {
		t.Error("bad attribute accepted")
	}
	f, _ = rule.ParseFunction("rule r1: bogus(name, name) >= 0.9")
	if _, err := Compile(f, sim.Standard(), a, b); err == nil {
		t.Error("bad sim accepted")
	}
	// Always-false rules are rejected at compile time.
	f, _ = rule.ParseFunction("rule r1: jaro(name, name) >= 0.9 and jaro(name, name) < 0.1")
	if _, err := Compile(f, sim.Standard(), a, b); err == nil {
		t.Error("contradictory rule accepted")
	}
}

func TestCompileCanonicalizesGroups(t *testing.T) {
	c, _ := mustCompile(t, "rule r1: jaro(name, name) >= 0.3 and jaccard(name, name) >= 0.2 and jaro(name, name) >= 0.6")
	if len(c.Rules[0].Preds) != 2 {
		t.Fatalf("preds = %v, want merged to 2", c.Rules[0].Preds)
	}
	if c.Rules[0].Preds[0].Threshold != 0.6 {
		t.Errorf("merged threshold = %v", c.Rules[0].Preds[0].Threshold)
	}
}

func TestFunctionRoundTrip(t *testing.T) {
	c, _ := mustCompile(t, testFunc)
	f := c.Function()
	if len(f.Rules) != 3 || f.Rules[0].Name != "r1" {
		t.Errorf("round trip function = %v", f.String())
	}
	if len(f.Rules[0].Preds) != 2 {
		t.Errorf("round trip preds = %v", f.Rules[0].Preds)
	}
}

func TestStrategiesAgree(t *testing.T) {
	c, pairs := mustCompile(t, testFunc)
	rudimentary := (&Matcher{C: c, Pairs: pairs}).MatchRudimentary()

	ee := &Matcher{C: c, Pairs: pairs} // no memo: Algorithm 3
	eeSt := ee.Match()

	dm := NewMatcher(c, pairs) // Algorithm 4
	dmSt := dm.Match()

	dmc := NewMatcher(c, pairs)
	dmc.CheckCacheFirst = true
	dmcSt := dmc.Match()

	pre := NewMatcher(c, pairs) // Algorithm 2 + early exit
	var allFeats []int
	for fi := range c.Features {
		allFeats = append(allFeats, fi)
	}
	pre.Precompute(allFeats)
	preSt := pre.Match()

	for pi := range pairs {
		want := rudimentary.Get(pi)
		for name, got := range map[string]bool{
			"early_exit":     eeSt.Matched.Get(pi),
			"dm":             dmSt.Matched.Get(pi),
			"dm_cache_first": dmcSt.Matched.Get(pi),
			"precompute":     preSt.Matched.Get(pi),
		} {
			if got != want {
				t.Errorf("pair %d: %s = %v, rudimentary = %v", pi, name, got, want)
			}
		}
	}
	if rudimentary.Count() == 0 || rudimentary.Count() == len(pairs) {
		t.Fatalf("degenerate fixture: %d/%d matched", rudimentary.Count(), len(pairs))
	}
}

func TestEarlyExitComputesLess(t *testing.T) {
	c, pairs := mustCompile(t, testFunc)
	r := &Matcher{C: c, Pairs: pairs}
	r.MatchRudimentary()
	ee := &Matcher{C: c, Pairs: pairs}
	ee.Match()
	if ee.Stats.FeatureComputes >= r.Stats.FeatureComputes {
		t.Errorf("early exit computed %d features, rudimentary %d",
			ee.Stats.FeatureComputes, r.Stats.FeatureComputes)
	}
}

func TestDynamicMemoingNeverRecomputes(t *testing.T) {
	c, pairs := mustCompile(t, testFunc)
	m := NewMatcher(c, pairs)
	m.Match()
	computes := m.Stats.FeatureComputes
	if computes == 0 {
		t.Fatal("no features computed at all")
	}
	// Each (feature, pair) computed at most once.
	if max := int64(len(c.Features) * len(pairs)); computes > max {
		t.Errorf("computed %d > %d possible distinct values", computes, max)
	}
	// A second run over the same memo computes nothing new.
	m.ResetStats()
	m.Match()
	if m.Stats.FeatureComputes != 0 {
		t.Errorf("second run computed %d features, want 0", m.Stats.FeatureComputes)
	}
	if m.Stats.MemoHits == 0 {
		t.Error("second run had no memo hits")
	}
}

func TestPrecomputeThenMatchOnlyLooksUp(t *testing.T) {
	c, pairs := mustCompile(t, testFunc)
	m := NewMatcher(c, pairs)
	var feats []int
	for fi := range c.Features {
		feats = append(feats, fi)
	}
	m.Precompute(feats)
	precomputed := m.Stats.FeatureComputes
	if want := int64(len(feats) * len(pairs)); precomputed != want {
		t.Errorf("precomputed %d, want %d", precomputed, want)
	}
	m.Match()
	if m.Stats.FeatureComputes != precomputed {
		t.Errorf("match after precompute computed %d extra features",
			m.Stats.FeatureComputes-precomputed)
	}
	// Precompute is idempotent.
	m.Precompute(feats)
	if m.Stats.FeatureComputes != precomputed {
		t.Error("re-precompute recomputed values")
	}
}

func TestPrecomputeRequiresMemo(t *testing.T) {
	c, pairs := mustCompile(t, testFunc)
	m := &Matcher{C: c, Pairs: pairs}
	defer func() {
		if recover() == nil {
			t.Error("Precompute without memo did not panic")
		}
	}()
	m.Precompute([]int{0})
}

func TestMatchStateInvariants(t *testing.T) {
	c, pairs := mustCompile(t, testFunc)
	m := NewMatcher(c, pairs)
	st := m.Match()
	for pi := range pairs {
		owners := 0
		for ri := range c.Rules {
			if st.RuleTrue[ri].Get(pi) {
				owners++
			}
		}
		if st.Matched.Get(pi) {
			if owners != 1 {
				t.Errorf("matched pair %d has %d owning rules", pi, owners)
			}
		} else {
			if owners != 0 {
				t.Errorf("unmatched pair %d has owners", pi)
			}
			// Witness invariant: every rule has a recorded false predicate.
			for ri := range c.Rules {
				found := false
				for pj := range c.Rules[ri].Preds {
					if st.PredFalse[ri][pj].Get(pi) {
						found = true
						break
					}
				}
				if !found {
					t.Errorf("unmatched pair %d has no false witness in rule %d", pi, ri)
				}
			}
		}
	}
}

func TestUsedFeatureIndexes(t *testing.T) {
	c, _ := mustCompile(t, testFunc)
	used := c.UsedFeatureIndexes()
	if len(used) != len(c.Features) {
		t.Errorf("used = %d, features = %d", len(used), len(c.Features))
	}
	// Bind an extra feature not referenced by any rule.
	if _, err := c.BindFeature(rule.Feature{Sim: "soundex", AttrA: "name", AttrB: "name"}); err != nil {
		t.Fatal(err)
	}
	if len(c.UsedFeatureIndexes()) != len(c.Features)-1 {
		t.Error("unused feature counted as used")
	}
}

// Property: all strategies agree on randomly generated rule sets.
func TestQuickStrategiesAgree(t *testing.T) {
	a, b, pairs := fixture(t)
	lib := sim.Standard()
	sims := []string{"jaro", "jaro_winkler", "levenshtein", "jaccard", "exact_match", "tf_idf", "trigram"}
	attrs := []string{"name", "phone", "city"}
	for trial := 0; trial < 40; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		var f rule.Function
		numRules := 1 + rng.Intn(4)
		for ri := 0; ri < numRules; ri++ {
			var r rule.Rule
			r.Name = fmt.Sprintf("r%d", ri+1)
			numPreds := 1 + rng.Intn(3)
			for pj := 0; pj < numPreds; pj++ {
				attr := attrs[rng.Intn(len(attrs))]
				op := rule.Ge
				if rng.Intn(3) == 0 {
					op = rule.Lt
				}
				r.Preds = append(r.Preds, rule.Predicate{
					Feature:   rule.Feature{Sim: sims[rng.Intn(len(sims))], AttrA: attr, AttrB: attr},
					Op:        op,
					Threshold: float64(rng.Intn(10)) / 10,
				})
			}
			f.Rules = append(f.Rules, r)
		}
		c, err := Compile(f, lib, a, b)
		if err != nil {
			continue // contradictory random rule: fine
		}
		want := (&Matcher{C: c, Pairs: pairs}).MatchRudimentary()
		dm := NewMatcher(c, pairs)
		dm.CheckCacheFirst = rng.Intn(2) == 0
		st := dm.Match()
		for pi := range pairs {
			if st.Matched.Get(pi) != want.Get(pi) {
				t.Fatalf("trial %d pair %d: dm=%v rudimentary=%v\nfunction:\n%s",
					trial, pi, st.Matched.Get(pi), want.Get(pi), f.String())
			}
		}
	}
}

func TestStatsAdd(t *testing.T) {
	s := Stats{FeatureComputes: 1, MemoHits: 2, PredEvals: 3, RuleEvals: 4, PairEvals: 5}
	s.Add(Stats{FeatureComputes: 10, MemoHits: 20, PredEvals: 30, RuleEvals: 40, PairEvals: 50})
	if s.FeatureComputes != 11 || s.MemoHits != 22 || s.PredEvals != 33 || s.RuleEvals != 44 || s.PairEvals != 55 {
		t.Errorf("Stats.Add = %+v", s)
	}
}
