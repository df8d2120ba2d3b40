package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"rulematch/internal/bitmap"
	"rulematch/internal/rule"
	"rulematch/internal/sim"
	"rulematch/internal/table"
)

// TestMatchParallelAgreesWithSerial: the sharded runs equal a
// static-order serial Match — marks-only runs in marks, materializing
// runs in state — with the same Stats and memo contents, for every
// worker count, over one chunk and over gapFixture's several, where the
// workers write one memo and one state in place.
func TestMatchParallelAgreesWithSerial(t *testing.T) {
	c1, p1 := mustCompile(t, testFunc)
	c2, p2 := gapFixture(t)
	for _, fx := range []struct {
		c     *Compiled
		pairs []table.Pair
	}{{c1, p1}, {c2, p2}} {
		c, pairs := fx.c, fx.pairs
		serial := NewMatcher(c, pairs)
		want := serial.Match()
		for _, workers := range []int{1, 2, 3, 8, 100} {
			m := NewMatcher(c, pairs)
			got, err := m.MatchParallelCtx(context.Background(), workers)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(want.Matched) {
				t.Fatalf("%d pairs, workers=%d: marks differ from serial Match", len(pairs), workers)
			}
			if m.Stats != serial.Stats {
				t.Errorf("%d pairs, workers=%d: marks-only stats %+v, serial %+v", len(pairs), workers, m.Stats, serial.Stats)
			}
			assertMemoEqual(t, fmt.Sprintf("%d pairs, workers=%d, marks only", len(pairs), workers), m.Memo, serial.Memo, len(c.Features), len(pairs))

			m = NewMatcher(c, pairs)
			st, err := m.MatchStateParallelCtx(context.Background(), workers)
			if err != nil {
				t.Fatal(err)
			}
			if !st.Equal(want) {
				t.Fatalf("%d pairs, workers=%d: state differs from serial Match", len(pairs), workers)
			}
			if m.Stats != serial.Stats {
				t.Errorf("%d pairs, workers=%d: materializing stats %+v, serial %+v", len(pairs), workers, m.Stats, serial.Stats)
			}
			assertMemoEqual(t, fmt.Sprintf("%d pairs, workers=%d, materializing", len(pairs), workers), m.Memo, serial.Memo, len(c.Features), len(pairs))
		}
	}
}

func TestMatchParallelEmptyAndZeroWorkers(t *testing.T) {
	c, pairs := mustCompile(t, testFunc)
	m := &Matcher{C: c, Pairs: nil}
	got, err := m.MatchParallelCtx(context.Background(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 0 {
		t.Errorf("empty pairs: %d marks", got.Len())
	}
	m2 := NewMatcher(c, pairs)
	got, err = m2.MatchParallelCtx(context.Background(), 0) // 0 = GOMAXPROCS
	if err != nil {
		t.Fatal(err)
	}
	want := (&Matcher{C: c, Pairs: pairs}).MatchRudimentary()
	if !got.Equal(want) {
		t.Fatal("default-workers run disagrees with Algorithm 1")
	}
}

// assertMemoEqual fails, naming the run as label, unless both memos
// hold exactly the same values.
func assertMemoEqual(t *testing.T, label string, got, want *ArrayMemo, numFeatures, numPairs int) {
	t.Helper()
	if got.Entries() != want.Entries() {
		t.Fatalf("%s: memo entries %d, want %d", label, got.Entries(), want.Entries())
	}
	for fi := 0; fi < numFeatures; fi++ {
		for pi := 0; pi < numPairs; pi++ {
			gv, gok := got.Get(fi, pi)
			wv, wok := want.Get(fi, pi)
			if gok != wok || gv != wv {
				t.Fatalf("%s: memo (%d,%d) = %v,%v want %v,%v", label, fi, pi, gv, gok, wv, wok)
			}
		}
	}
}

// dupFixture builds tables where attribute values repeat across
// records, so distinct pairs present identical value combinations.
func dupFixture(t *testing.T) (*Compiled, []table.Pair) {
	t.Helper()
	a := table.MustNew("A", []string{"name", "city"})
	b := table.MustNew("B", []string{"name", "city"})
	for i, row := range [][]string{
		{"ann lee", "madison"}, {"bo kim", "madison"}, {"cy wu", "chicago"},
	} {
		a.Append(fmt.Sprintf("a%d", i), row...)
	}
	for i, row := range [][]string{
		{"ann lee", "madison"}, {"ann leigh", "madison"},
		{"bo kim", "chicago"}, {"dee jones", "chicago"},
	} {
		b.Append(fmt.Sprintf("b%d", i), row...)
	}
	f, err := rule.ParseFunction(`
rule r1: jaro_winkler(name, name) >= 0.9 and exact_match(city, city) >= 1
rule r2: trigram(city, city) >= 0.4`)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compile(f, sim.Standard(), a, b)
	if err != nil {
		t.Fatal(err)
	}
	var pairs []table.Pair
	for i := 0; i < a.Len(); i++ {
		for j := 0; j < b.Len(); j++ {
			pairs = append(pairs, table.Pair{A: int32(i), B: int32(j)})
		}
	}
	return c, pairs
}

func TestValueCacheAgreesAndSavesWork(t *testing.T) {
	// Duplicate attribute values across pairs: the value cache should
	// collapse their similarity computations.
	c, pairs := dupFixture(t)
	base := NewMatcher(c, pairs)
	want := base.Match()

	vc := NewMatcher(c, pairs)
	vc.ValueCache = true
	got := vc.Match()
	for pi := range pairs {
		if got.Matched.Get(pi) != want.Matched.Get(pi) {
			t.Fatalf("value cache changed outcome at pair %d", pi)
		}
	}
	if vc.Stats.ValueCacheHits == 0 {
		t.Error("no value-cache hits despite repeated attribute values")
	}
	if vc.Stats.FeatureComputes >= base.Stats.FeatureComputes {
		t.Errorf("value cache computed %d features, plain memo %d",
			vc.Stats.FeatureComputes, base.Stats.FeatureComputes)
	}
	// Total resolutions must balance: computes + value hits with cache
	// equal computes without it.
	if vc.Stats.FeatureComputes+vc.Stats.ValueCacheHits != base.Stats.FeatureComputes {
		t.Errorf("compute accounting off: %d + %d != %d",
			vc.Stats.FeatureComputes, vc.Stats.ValueCacheHits, base.Stats.FeatureComputes)
	}
}

func TestValueCacheWithPrecompute(t *testing.T) {
	c, pairs := dupFixture(t)
	m := NewMatcher(c, pairs)
	m.ValueCache = true
	var feats []int
	for fi := range c.Features {
		feats = append(feats, fi)
	}
	m.Precompute(feats)
	if m.Stats.ValueCacheHits == 0 {
		t.Error("precompute ignored the value cache")
	}
	want := (&Matcher{C: c, Pairs: pairs}).MatchRudimentary()
	st := m.Match()
	for pi := range pairs {
		if st.Matched.Get(pi) != want.Get(pi) {
			t.Fatalf("precompute+value-cache disagrees at pair %d", pi)
		}
	}
}

func TestProfileCacheAgreesAndHelps(t *testing.T) {
	c, pairs := mustCompile(t, testFunc)
	want := (&Matcher{C: c, Pairs: pairs}).MatchRudimentary()
	if c.ProfileCacheEnabled() {
		t.Fatal("cache on before enabling")
	}
	c.EnableProfileCache()
	c.EnableProfileCache() // idempotent
	if !c.ProfileCacheEnabled() || c.ProfileEntries() != 0 {
		t.Fatal("enabling the profile cache built profiles before any compute")
	}
	m := NewMatcher(c, pairs)
	st := m.Match()
	for pi := range pairs {
		if st.Matched.Get(pi) != want.Get(pi) {
			t.Fatalf("profile cache changed outcome at pair %d", pi)
		}
	}
	if c.ProfileEntries() == 0 {
		t.Fatal("a run over the profile cache bound no profiles")
	}
	// A feature bound after enabling is profiled on its first compute.
	fi, err := c.BindFeature(rule.Feature{Sim: "jaccard_3gram", AttrA: "name", AttrB: "name"})
	if err != nil {
		t.Fatal(err)
	}
	before := c.ProfileEntries()
	c.ComputeFeature(fi, pairs[0])
	if got, want := c.ProfileEntries(), before+c.A.Len()+c.B.Len(); got != want {
		t.Fatalf("first compute of a new feature: %d profile entries, want %d", got, want)
	}
	// Sharded matching over the shared read-only cache.
	got, err := NewMatcher(c, pairs).MatchParallelCtx(context.Background(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatal("sharded run with profiles disagrees with Algorithm 1")
	}
}

// TestMatchStateParallelMatchesSerial is the seeded property test for
// the sharded materializing run: over random rule sets and the fixture
// pairs tiled past three chunks, every worker count must produce
// Matched/RuleTrue byte-equal to the serial Match,
// PredFalse byte-equal to a static-order serial Match, a memo with
// identical contents, the same Stats, and state passing Validate.
func TestMatchStateParallelMatchesSerial(t *testing.T) {
	a, b, small := fixture(t)
	pairs := tilePairs(small)
	lib := sim.Standard()
	sims := []string{"jaro", "jaro_winkler", "levenshtein", "jaccard", "exact_match", "tf_idf", "trigram"}
	attrs := []string{"name", "phone", "city"}
	for trial := 0; trial < 25; trial++ {
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
		// Serial baseline in static predicate order (what the sharded
		// run materializes), plus a cache-first serial run for the
		// order-independent sets.
		serial := NewMatcher(c, pairs)
		want := serial.Match()
		cacheFirst := NewMatcher(c, pairs)
		cacheFirst.CheckCacheFirst = true
		wantCF := cacheFirst.Match()
		// Each worker count's state must equal want bit for bit, so
		// validating want once validates them all.
		if err := want.Validate(c, pairs); err != nil {
			t.Fatalf("trial %d: serial state invalid: %v", trial, err)
		}
		for _, workers := range []int{1, 2, 3, 8} {
			m := NewMatcher(c, pairs)
			got, err := m.MatchStateParallelCtx(context.Background(), workers)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Matched.Equal(want.Matched) {
				t.Fatalf("trial %d workers=%d: Matched diverges from serial\n%s", trial, workers, f.String())
			}
			for ri := range c.Rules {
				if !got.RuleTrue[ri].Equal(want.RuleTrue[ri]) {
					t.Fatalf("trial %d workers=%d: RuleTrue[%d] diverges", trial, workers, ri)
				}
				if !got.RuleTrue[ri].Equal(wantCF.RuleTrue[ri]) {
					t.Fatalf("trial %d workers=%d: RuleTrue[%d] diverges from cache-first serial", trial, workers, ri)
				}
			}
			if !got.Equal(want) {
				t.Fatalf("trial %d workers=%d: PredFalse diverges from static-order serial", trial, workers)
			}
			// The shared memo holds exactly the serial memo's values.
			assertMemoEqual(t, fmt.Sprintf("trial %d workers=%d", trial, workers), m.Memo, serial.Memo, len(c.Features), len(pairs))
			if m.Stats != serial.Stats {
				t.Errorf("trial %d workers=%d: stats %+v, serial %+v", trial, workers, m.Stats, serial.Stats)
			}
		}
	}
}

func TestMatchStateParallelEmpty(t *testing.T) {
	c, _ := mustCompile(t, testFunc)
	m := &Matcher{C: c, Pairs: nil, Memo: NewArrayMemo(0)}
	st, err := m.MatchStateParallelCtx(context.Background(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if st.Matched.Len() != 0 || len(st.RuleTrue) != len(c.Rules) {
		t.Errorf("empty sharded state malformed")
	}
}

// gapFixture builds 80 x 80 records — 6,400 candidate pairs, several
// chunks at every worker count — whose names repeat across records.
// Codes differ on every pair except two: r1 computes the name feature
// for every pair but those, so at r2's entry the name column is
// memo-resident across a whole batch block exactly when the block holds
// neither gap, and check-cache-first orders r2 by it.
func gapFixture(t *testing.T) (*Compiled, []table.Pair) {
	t.Helper()
	names := []string{"ann lee", "anne lee", "bo kim", "bob kim", "cy wu", "dee jones", "dee jonas"}
	cities := []string{"madison", "madson", "chicago", "chicag0", "seattle"}
	a := table.MustNew("A", []string{"name", "city", "code"})
	b := table.MustNew("B", []string{"name", "city", "code"})
	for i := 0; i < 80; i++ {
		a.Append(fmt.Sprintf("a%d", i), names[i%len(names)], cities[i%len(cities)], fmt.Sprintf("a%d", i))
		code := fmt.Sprintf("b%d", i)
		switch i {
		case 3: // gap at pair 3*80+3
			code = "a3"
		case 60: // gap at pair 33*80+60
			code = "a33"
		}
		b.Append(fmt.Sprintf("b%d", i), names[(i*3)%len(names)], cities[(i*2)%len(cities)], code)
	}
	f, err := rule.ParseFunction(`
rule r1: exact_match(code, code) < 1 and jaro_winkler(name, name) >= 0.97
rule r2: trigram(city, city) >= 0.5 and jaro_winkler(name, name) >= 0.8
rule r3: levenshtein(city, city) >= 0.7 and jaccard(name, name) >= 0.4`)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compile(f, sim.Standard(), a, b)
	if err != nil {
		t.Fatal(err)
	}
	var pairs []table.Pair
	for i := 0; i < a.Len(); i++ {
		for j := 0; j < b.Len(); j++ {
			pairs = append(pairs, table.Pair{A: int32(i), B: int32(j)})
		}
	}
	return c, pairs
}

// TestShardValueCachePrivate: each chunk of a sharded run keeps its own
// value map (run under -race, shared writes would be flagged), outcomes
// equal the serial run, and every feature resolution is either a
// compute or a value-cache hit.
func TestShardValueCachePrivate(t *testing.T) {
	c, pairs := gapFixture(t)
	serial := NewMatcher(c, pairs)
	want := serial.Match()
	for _, workers := range []int{1, 4} {
		m := NewMatcher(c, pairs)
		m.ValueCache = true
		got, err := m.MatchStateParallelCtx(context.Background(), workers)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("workers=%d: value-cached sharded state differs from serial", workers)
		}
		if m.Stats.ValueCacheHits == 0 {
			t.Errorf("workers=%d: no value-cache hits despite repeated values", workers)
		}
		if m.Stats.FeatureComputes+m.Stats.ValueCacheHits != serial.Stats.FeatureComputes {
			t.Errorf("workers=%d: compute accounting off: %d + %d != %d", workers,
				m.Stats.FeatureComputes, m.Stats.ValueCacheHits, serial.Stats.FeatureComputes)
		}
	}
}

// TestShardedWorkIndependentOfWorkers: chunks are whole batch blocks, so
// the per-block check-cache-first order — and with it every counter of
// a marks-only run over a memo warmed by earlier runs at other
// thresholds — is the same at every worker count, as is the memo.
func TestShardedWorkIndependentOfWorkers(t *testing.T) {
	c, pairs := gapFixture(t)
	thresholds := []float64{0.95, 0.5, 0.8, 0.2, 0.65}
	p := &c.Rules[1].Preds[0]
	orig := p.Threshold
	type result struct {
		warm, marks Stats
		entries     int64
		points      []*bitmap.Bits
	}
	var ref *result
	for _, workers := range []int{1, 2, 3, 4} {
		m := NewMatcher(c, pairs)
		m.CheckCacheFirst = true
		got := &result{}
		for _, thr := range thresholds {
			p.Threshold = thr
			bits, err := m.MatchParallelCtx(context.Background(), workers)
			p.Threshold = orig
			if err != nil {
				t.Fatal(err)
			}
			got.points = append(got.points, bits)
		}
		got.warm, got.entries = m.Stats, m.Memo.Entries()
		m.ResetStats()
		if _, err := m.MatchParallelCtx(context.Background(), workers); err != nil {
			t.Fatal(err)
		}
		got.marks = m.Stats
		if ref == nil {
			ref = got
			continue
		}
		if got.warm != ref.warm || got.marks != ref.marks || got.entries != ref.entries {
			t.Errorf("workers=%d: warm-up %+v marks %+v entries %d; workers=1: %+v %+v %d",
				workers, got.warm, got.marks, got.entries, ref.warm, ref.marks, ref.entries)
		}
		for ti := range got.points {
			if !got.points[ti].Equal(ref.points[ti]) {
				t.Errorf("workers=%d: point %d differs", workers, ti)
			}
		}
	}
}
