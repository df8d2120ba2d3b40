package estimate

import (
	"fmt"
	"math"
	"testing"

	"rulematch/internal/core"
	"rulematch/internal/rule"
	"rulematch/internal/sim"
	"rulematch/internal/table"
)

func buildTask(t *testing.T) (*core.Compiled, []table.Pair) {
	t.Helper()
	a := table.MustNew("A", []string{"name"})
	b := table.MustNew("B", []string{"name"})
	names := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta"}
	for i, n := range names {
		if err := a.Append(fmt.Sprintf("a%d", i), n); err != nil {
			t.Fatal(err)
		}
		if err := b.Append(fmt.Sprintf("b%d", i), n+"x"); err != nil {
			t.Fatal(err)
		}
	}
	f, err := rule.ParseFunction("rule r1: jaro(name, name) >= 0.8 and levenshtein(name, name) >= 0.7")
	if err != nil {
		t.Fatal(err)
	}
	c, err := core.Compile(f, sim.Standard(), a, b)
	if err != nil {
		t.Fatal(err)
	}
	var pairs []table.Pair
	for i := range names {
		for j := range names {
			pairs = append(pairs, table.Pair{A: int32(i), B: int32(j)})
		}
	}
	return c, pairs
}

func TestSamplePairsDeterministic(t *testing.T) {
	_, pairs := buildTask(t)
	s1, idx1 := SamplePairs(pairs, 0.25, 7)
	s2, idx2 := SamplePairs(pairs, 0.25, 7)
	if len(s1) != 16 {
		t.Fatalf("sample size = %d, want 16", len(s1))
	}
	for i := range s1 {
		if s1[i] != s2[i] || idx1[i] != idx2[i] {
			t.Fatal("sampling not deterministic for fixed seed")
		}
	}
	s3, _ := SamplePairs(pairs, 0.25, 8)
	same := true
	for i := range s1 {
		if s1[i] != s3[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical samples")
	}
	// Distinctness.
	seen := map[int]bool{}
	for _, i := range idx1 {
		if seen[i] {
			t.Fatal("sample contains duplicate indexes")
		}
		seen[i] = true
	}
}

func TestSamplePairsBounds(t *testing.T) {
	_, pairs := buildTask(t)
	if s, _ := SamplePairs(pairs, 0, 1); len(s) != 1 {
		t.Errorf("zero fraction sample = %d, want 1 (minimum)", len(s))
	}
	if s, _ := SamplePairs(pairs, 5, 1); len(s) != len(pairs) {
		t.Errorf("oversized fraction sample = %d, want %d", len(s), len(pairs))
	}
}

func TestNewMeasuresAllFeatures(t *testing.T) {
	c, pairs := buildTask(t)
	e := New(c, pairs, 0.5, 1)
	if e.SampleSize() != 32 {
		t.Fatalf("sample size = %d", e.SampleSize())
	}
	for fi := range c.Features {
		key := c.Features[fi].Key
		if !e.HasFeature(key) {
			t.Errorf("feature %q not measured", key)
		}
		if e.FeatureCost(key) <= 0 {
			t.Errorf("feature %q cost = %v", key, e.FeatureCost(key))
		}
		if len(e.FeatureValues(key)) != e.SampleSize() {
			t.Errorf("feature %q has %d values", key, len(e.FeatureValues(key)))
		}
	}
	if e.Delta <= 0 {
		t.Errorf("delta = %v", e.Delta)
	}
}

func TestEnsureIsIncremental(t *testing.T) {
	c, pairs := buildTask(t)
	e := New(c, pairs, 0.3, 1)
	fi, err := c.BindFeature(rule.Feature{Sim: "jaccard_3gram", AttrA: "name", AttrB: "name"})
	if err != nil {
		t.Fatal(err)
	}
	key := c.Features[fi].Key
	if e.HasFeature(key) {
		t.Fatal("unbound feature already measured")
	}
	e.Ensure(c, fi)
	if !e.HasFeature(key) {
		t.Fatal("Ensure did not measure")
	}
	vals := e.FeatureValues(key)
	e.Ensure(c, fi) // idempotent
	if &vals[0] != &e.FeatureValues(key)[0] {
		t.Error("Ensure re-measured an existing feature")
	}
}

// TestEnsureTimesBoundProfiles: with the profile cache on, jaccard's
// first compute builds the share group dice then reads, over every
// record. That build must stay out of jaccard's measured per-pair
// cost, or the cost model ranks it as the most expensive feature by
// orders of magnitude.
func TestEnsureTimesBoundProfiles(t *testing.T) {
	a := table.MustNew("A", []string{"name"})
	b := table.MustNew("B", []string{"name"})
	var pairs []table.Pair
	for i := 0; i < 3000; i++ {
		v := fmt.Sprintf("acme widget model %d series %d", i, i%97)
		if err := a.Append(fmt.Sprintf("a%d", i), v); err != nil {
			t.Fatal(err)
		}
		if err := b.Append(fmt.Sprintf("b%d", i), v+" pro"); err != nil {
			t.Fatal(err)
		}
		pairs = append(pairs, table.Pair{A: int32(i), B: int32(i)})
	}
	f, err := rule.ParseFunction("rule r1: jaccard(name, name) >= 0.5 and dice(name, name) >= 0.5")
	if err != nil {
		t.Fatal(err)
	}
	c, err := core.Compile(f, sim.Standard(), a, b)
	if err != nil {
		t.Fatal(err)
	}
	c.EnableProfileCache()
	e := New(c, pairs, 0.02, 1)
	jac, dice := e.FeatureCost("jaccard(name,name)"), e.FeatureCost("dice(name,name)")
	if jac > 20*dice {
		t.Fatalf("jaccard costs %.3gs per pair against dice's %.3gs over the same profiles: the profile build was timed", jac, dice)
	}
}

func TestPredSelFromValues(t *testing.T) {
	e := FromValues(map[string][]float64{
		"f(a,a)": {0.1, 0.5, 0.9, 1.0},
	}, map[string]float64{"f(a,a)": 2}, 0.1)
	if got := e.PredSel("f(a,a)", rule.Ge, 0.5); got != 0.75 {
		t.Errorf("sel(>=0.5) = %v, want 0.75", got)
	}
	if got := e.PredSel("f(a,a)", rule.Lt, 0.5); got != 0.25 {
		t.Errorf("sel(<0.5) = %v, want 0.25", got)
	}
	if got := e.PredSel("missing", rule.Ge, 0.5); got != 0.5 {
		t.Errorf("unmeasured sel = %v, want 0.5 default", got)
	}
	if got := e.FeatureCost("f(a,a)"); got != 2 {
		t.Errorf("cost = %v", got)
	}
	// Unmeasured cost falls back to the mean of measured costs.
	if got := e.FeatureCost("missing"); got != 2 {
		t.Errorf("fallback cost = %v, want mean 2", got)
	}
}

func TestConjSelEmpirical(t *testing.T) {
	keyOf := func(fi int) string { return []string{"f(a,a)", "g(b,b)"}[fi] }
	e := FromValues(map[string][]float64{
		// Perfectly anti-correlated features: independence would give
		// 0.25, the empirical conjunction gives 0.
		"f(a,a)": {1, 1, 0, 0},
		"g(b,b)": {0, 0, 1, 1},
	}, nil, 0.01)
	preds := []core.CompiledPred{
		{Feat: 0, Op: rule.Ge, Threshold: 0.5},
		{Feat: 1, Op: rule.Ge, Threshold: 0.5},
	}
	if got := e.ConjSel(preds, keyOf); got != 0 {
		t.Errorf("anti-correlated conj sel = %v, want 0", got)
	}
	if got := e.ConjSel(preds[:1], keyOf); got != 0.5 {
		t.Errorf("single pred sel = %v, want 0.5", got)
	}
	if got := e.ConjSel(nil, keyOf); got != 1 {
		t.Errorf("empty conj sel = %v, want 1", got)
	}
}

func TestConjSelUnmeasuredPenalty(t *testing.T) {
	keyOf := func(fi int) string { return []string{"f(a,a)", "missing"}[fi] }
	e := FromValues(map[string][]float64{"f(a,a)": {1, 1, 1, 0}}, nil, 0.01)
	preds := []core.CompiledPred{
		{Feat: 0, Op: rule.Ge, Threshold: 0.5},
		{Feat: 1, Op: rule.Ge, Threshold: 0.5},
	}
	got := e.ConjSel(preds, keyOf)
	if math.Abs(got-0.75*0.5) > 1e-12 {
		t.Errorf("penalized conj sel = %v, want 0.375", got)
	}
	// Nothing measured at all: pure independence fallback.
	e2 := FromValues(nil, nil, 0.01)
	if got := e2.ConjSel(preds, keyOf); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("fallback conj sel = %v, want 0.25", got)
	}
}

func TestEstimatesDegradeGracefullyWithoutPairs(t *testing.T) {
	c, _ := buildTask(t)
	e := New(c, nil, 0.01, 1)
	if e.SampleSize() != 0 {
		t.Fatalf("sample size = %d", e.SampleSize())
	}
	// Costs and selectivities fall back to defaults instead of NaN.
	for fi := range c.Features {
		key := c.Features[fi].Key
		if cost := e.FeatureCost(key); math.IsNaN(cost) || cost < 0 {
			t.Errorf("cost(%s) = %v", key, cost)
		}
	}
	if sel := e.PredSel(c.Features[0].Key, rule.Ge, 0.5); math.IsNaN(sel) {
		t.Errorf("sel = %v", sel)
	}
}
