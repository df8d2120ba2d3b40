package incremental

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"rulematch/internal/bitmap"
	"rulematch/internal/core"
	"rulematch/internal/rule"
	"rulematch/internal/sim"
	"rulematch/internal/table"
)

// fixture builds two name/phone/city tables with a mix of near and far
// pairs, and the full cross product as candidates.
func fixture(t testing.TB) (*table.Table, *table.Table, []table.Pair) {
	t.Helper()
	a := table.MustNew("A", []string{"name", "phone", "city"})
	b := table.MustNew("B", []string{"name", "phone", "city"})
	rowsA := [][]string{
		{"matthew richardson", "206-453-1978", "seattle"},
		{"john smith", "608-263-1000", "madison"},
		{"maria garcia", "312-555-0148", "chicago"},
		{"wei chen", "414-555-0199", "milwaukee"},
		{"sara lopez", "217-555-0123", "springfield"},
		{"omar patel", "614-555-0177", "columbus"},
	}
	rowsB := [][]string{
		{"matt richardson", "453 1978", "seattle"},
		{"jon smith", "608-263-1000", "madison"},
		{"mary garcia", "3125550148", "chicago"},
		{"alexandra cooper", "212-555-0101", "new york"},
		{"wei chen", "414-555-0199", "milwaukee"},
		{"sarah lopez", "217-555-0123", "springfield"},
		{"omar patel", "614 555 0177", "columbus"},
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

func newSession(t testing.TB, src string) *Session {
	t.Helper()
	a, b, pairs := fixture(t)
	f, err := rule.ParseFunction(src)
	if err != nil {
		t.Fatal(err)
	}
	c, err := core.Compile(f, sim.Standard(), a, b)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSession(c, pairs)
	mustRun(t, s)
	return s
}

// mustRun runs the session's full materializing run.
func mustRun(t testing.TB, s *Session) {
	t.Helper()
	if err := s.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// sweep sweeps predicate pj of rule ri with the session's workers.
func sweep(t testing.TB, s *Session, ri, pj int, thresholds []float64) []SweepPoint {
	t.Helper()
	points, err := s.SweepThresholdParallelCtx(context.Background(), ri, pj, thresholds, s.M.Workers)
	if err != nil {
		t.Fatal(err)
	}
	return points
}

// freshSweepPoint evaluates the session's function from scratch
// (Algorithm 1: no memo, no state) with predicate pj of rule ri set to
// thr, on a private copy of the compiled rules, and clears the dead
// pairs. It does not recompile: Compile rejects always-false rules such
// as "< 0", which threshold edits can reach. The copy shares the bound
// features but no profile state, so it scores raw strings.
func freshSweepPoint(s *Session, ri, pj int, thr float64) *bitmap.Bits {
	src := s.M.C
	c := &core.Compiled{A: src.A, B: src.B, Lib: src.Lib, Features: src.Features,
		Rules: make([]core.CompiledRule, len(src.Rules))}
	for i, r := range src.Rules {
		r.Preds = slices.Clone(r.Preds)
		c.Rules[i] = r
	}
	c.Rules[ri].Preds[pj].Threshold = thr
	bits := (&core.Matcher{C: c, Pairs: s.M.Pairs}).MatchRudimentary()
	if dead := s.DeadPairs(); dead != nil {
		bits.AndNot(dead)
	}
	return bits
}

const baseFunc = `
rule r1: jaro_winkler(name, name) >= 0.9 and exact_match(city, city) >= 1
rule r2: levenshtein(phone, phone) >= 0.9 and jaccard(name, name) >= 0.3
rule r3: trigram(name, name) >= 0.8
`

func mustVerify(t *testing.T, s *Session, context string) {
	t.Helper()
	if err := s.Verify(); err != nil {
		t.Fatalf("%s: %v", context, err)
	}
}

func TestRunFullMatchesOracle(t *testing.T) {
	s := newSession(t, baseFunc)
	mustVerify(t, s, "after RunFull")
	if s.MatchCount() == 0 || s.MatchCount() == len(s.M.Pairs) {
		t.Fatalf("degenerate fixture: %d matches", s.MatchCount())
	}
}

func TestOpsRequireRunFull(t *testing.T) {
	a, b, pairs := fixture(t)
	f, _ := rule.ParseFunction(baseFunc)
	c, err := core.Compile(f, sim.Standard(), a, b)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSession(c, pairs)
	if err := s.AddRule(rule.Rule{Name: "x", Preds: []rule.Predicate{{
		Feature: rule.Feature{Sim: "jaro", AttrA: "name", AttrB: "name"}, Op: rule.Ge, Threshold: 0.5}}}); err == nil {
		t.Error("AddRule before RunFull accepted")
	}
	if err := s.RemoveRule(0); err == nil {
		t.Error("RemoveRule before RunFull accepted")
	}
}

func TestAddPredicate(t *testing.T) {
	s := newSession(t, baseFunc)
	before := s.MatchCount()
	p, err := rule.ParsePredicate("jaccard(city, city) >= 0.99")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddPredicate(2, p); err != nil {
		t.Fatal(err)
	}
	mustVerify(t, s, "after AddPredicate")
	if s.MatchCount() > before {
		t.Error("adding a predicate increased matches")
	}
	if s.LastOp.Op != "add_predicate" {
		t.Errorf("op = %q", s.LastOp.Op)
	}
	// Only pairs owned by the changed rule are examined.
	if s.LastOp.PairsExamined > len(s.M.Pairs) {
		t.Errorf("examined %d pairs", s.LastOp.PairsExamined)
	}
}

func TestAddPredicateWithNewFeature(t *testing.T) {
	s := newSession(t, baseFunc)
	nf := len(s.M.C.Features)
	p, err := rule.ParsePredicate("soundex(name, name) >= 0.4")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddPredicate(0, p); err != nil {
		t.Fatal(err)
	}
	if len(s.M.C.Features) != nf+1 {
		t.Errorf("features = %d, want %d", len(s.M.C.Features), nf+1)
	}
	mustVerify(t, s, "after AddPredicate with new feature")
}

func TestTightenPredicate(t *testing.T) {
	s := newSession(t, baseFunc)
	if err := s.TightenPredicate(2, 0, 0.95); err != nil {
		t.Fatal(err)
	}
	mustVerify(t, s, "after TightenPredicate")
	// Direction checks.
	if err := s.TightenPredicate(2, 0, 0.5); err == nil {
		t.Error("loosening via Tighten accepted")
	}
	if err := s.TightenPredicate(2, 0, 0.95); err == nil {
		t.Error("no-op threshold accepted")
	}
}

func TestRelaxPredicate(t *testing.T) {
	s := newSession(t, baseFunc)
	before := s.MatchCount()
	if err := s.RelaxPredicate(0, 0, 0.7); err != nil {
		t.Fatal(err)
	}
	mustVerify(t, s, "after RelaxPredicate")
	if s.MatchCount() < before {
		t.Error("relaxing a predicate decreased matches")
	}
	if err := s.RelaxPredicate(0, 0, 0.9); err == nil {
		t.Error("tightening via Relax accepted")
	}
}

func TestRemovePredicate(t *testing.T) {
	s := newSession(t, baseFunc)
	before := s.MatchCount()
	if err := s.RemovePredicate(1, 1); err != nil {
		t.Fatal(err)
	}
	mustVerify(t, s, "after RemovePredicate")
	if s.MatchCount() < before {
		t.Error("removing a predicate decreased matches")
	}
	if len(s.M.C.Rules[1].Preds) != 1 {
		t.Errorf("preds left = %d", len(s.M.C.Rules[1].Preds))
	}
	if err := s.RemovePredicate(1, 0); err == nil {
		t.Error("removing the only predicate accepted")
	}
}

func TestRemoveRule(t *testing.T) {
	s := newSession(t, baseFunc)
	if err := s.RemoveRule(1); err != nil {
		t.Fatal(err)
	}
	mustVerify(t, s, "after RemoveRule(1)")
	if len(s.M.C.Rules) != 2 {
		t.Errorf("rules = %d", len(s.M.C.Rules))
	}
	// Remove the (new) first rule too.
	if err := s.RemoveRule(0); err != nil {
		t.Fatal(err)
	}
	mustVerify(t, s, "after RemoveRule(0)")
	if err := s.RemoveRule(5); err == nil {
		t.Error("out-of-range rule accepted")
	}
}

func TestAddRule(t *testing.T) {
	s := newSession(t, baseFunc)
	before := s.MatchCount()
	unmatchedBefore := len(s.M.Pairs) - before
	r, err := rule.ParseRule("r4: soundex(name, name) >= 0.6 and exact_match(city, city) >= 1")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddRule(r); err != nil {
		t.Fatal(err)
	}
	mustVerify(t, s, "after AddRule")
	if s.MatchCount() < before {
		t.Error("adding a rule decreased matches")
	}
	// Algorithm 10: only unmatched pairs are examined.
	if s.LastOp.PairsExamined != unmatchedBefore {
		t.Errorf("examined %d pairs, want %d unmatched", s.LastOp.PairsExamined, unmatchedBefore)
	}
}

func TestSetThresholdDispatch(t *testing.T) {
	s := newSession(t, baseFunc)
	if err := s.SetThreshold(2, 0, 0.95); err != nil {
		t.Fatal(err)
	}
	if s.LastOp.Op != "tighten_predicate" {
		t.Errorf("op = %q, want tighten", s.LastOp.Op)
	}
	if err := s.SetThreshold(2, 0, 0.6); err != nil {
		t.Fatal(err)
	}
	if s.LastOp.Op != "relax_predicate" {
		t.Errorf("op = %q, want relax", s.LastOp.Op)
	}
	if err := s.SetThreshold(2, 0, 0.6); err != nil {
		t.Fatal(err)
	}
	if s.LastOp.Op != "set_threshold_noop" {
		t.Errorf("op = %q, want noop", s.LastOp.Op)
	}
	mustVerify(t, s, "after SetThreshold sequence")
}

// Regression test for the ownership-migration subtlety: relaxing a
// predicate makes an EARLIER rule true for a pair owned by a LATER
// rule; a subsequent tighten of the later rule must not lose the match.
func TestRelaxThenTightenOwnershipMigration(t *testing.T) {
	// For the exact-duplicate "wei chen" pair, r1 is initially false
	// (trigram of identical names is 1, failing the < 0.99 predicate)
	// while r2 (equal phones) matches it — so r2 owns the pair. Relaxing
	// r1's upper bound makes the EARLIER rule true for it; ownership
	// must migrate to r1, or the later RemoveRule(r2) — which only
	// re-evaluates rules after r2 — would lose the match.
	src := `
rule r1: jaro_winkler(name, name) >= 0.9 and trigram(name, name) < 0.99
rule r2: levenshtein(phone, phone) >= 0.9 and jaccard(name, name) >= 0.3`
	s := newSession(t, src)
	mustVerify(t, s, "initial")
	weiPair := -1
	for pi, p := range s.M.Pairs {
		if s.M.C.A.Records[p.A].Values[0] == "wei chen" && s.M.C.B.Records[p.B].Values[0] == "wei chen" {
			weiPair = pi
		}
	}
	if weiPair < 0 || !s.Matched(weiPair) {
		t.Fatalf("fixture: wei chen pair %d not matched initially", weiPair)
	}
	if !s.St.RuleTrue[1].Get(weiPair) {
		t.Fatal("fixture: wei chen pair not owned by r2")
	}
	// Relax r1's trigram upper bound past 1: r1 now covers wei chen.
	if err := s.RelaxPredicate(0, 1, 1.01); err != nil {
		t.Fatal(err)
	}
	mustVerify(t, s, "after relax")
	if s.LastOp.OwnershipMoves == 0 {
		t.Fatal("relax did not migrate ownership (scenario not exercised)")
	}
	if !s.St.RuleTrue[0].Get(weiPair) {
		t.Fatal("wei chen pair not migrated to r1")
	}
	// Remove r2: pairs it owns are only re-checked against later rules.
	if err := s.RemoveRule(1); err != nil {
		t.Fatal(err)
	}
	mustVerify(t, s, "after remove")
	if !s.Matched(weiPair) {
		t.Fatal("pair lost despite earlier rule matching it (ownership migration broken)")
	}
}

// TestRemoveRuleThenRelaxKeepsOwners: RemoveRule as the first op after
// Run, then a relax that makes r1 fire for the "wei chen" pair that r2
// owns, then removing r2. Ownership must move from r2 itself (the one
// rule whose match set holds the pair), or the pair sits in two match
// sets and removing r2 drops it. VerifyDeep runs after every op.
func TestRemoveRuleThenRelaxKeepsOwners(t *testing.T) {
	s := newSession(t, `
rule r1: jaro_winkler(name, name) >= 0.9 and trigram(name, name) < 0.99
rule rx: levenshtein(city, city) >= 0.99 and trigram(name, name) < 0.5
rule ry: levenshtein(city, city) >= 0.98 and trigram(name, name) < 0.4
rule r2: levenshtein(phone, phone) >= 0.9 and jaccard(name, name) >= 0.3`)
	for _, op := range []struct {
		name string
		do   func() error
	}{
		{"remove rx", func() error { return s.RemoveRule(1) }},
		{"relax r1", func() error { return s.RelaxPredicate(0, 1, 1.01) }},
		{"remove r2", func() error { return s.RemoveRule(2) }},
	} {
		if err := op.do(); err != nil {
			t.Fatalf("%s: %v", op.name, err)
		}
		if err := s.VerifyDeep(); err != nil {
			t.Fatalf("after %s: %v", op.name, err)
		}
	}
}

// TestTightenBackEvaluatesNoRule: relaxing r1 gains one pair and moves
// no ownership, so every pair it gained was unmatched and holds a false
// bit in every later rule (invariant 2). The relax reports its work:
// one predicate read per examined pair, and one rule entered, with
// every predicate of r1 read, per pair whose relaxed predicate now
// passes. Tightening back drops exactly the gained pairs, and the
// cascade must skip every later rule for them without evaluating one.
func TestTightenBackEvaluatesNoRule(t *testing.T) {
	s := newSession(t, baseFunc)
	before := s.St.Matched.Clone()
	thr := s.M.C.Rules[0].Preds[0].Threshold
	if err := s.RelaxPredicate(0, 0, 0.7); err != nil {
		t.Fatal(err)
	}
	gained := s.MatchCount() - before.Count()
	if gained <= 0 || s.LastOp.OwnershipMoves != 0 {
		t.Fatalf("fixture: relax gained %d pairs with %d ownership moves; want a gain and no move",
			gained, s.LastOp.OwnershipMoves)
	}
	relax := s.LastOp
	if relax.Stats.RuleEvals < int64(gained) {
		t.Errorf("relax re-checked %d rules for %d gained pairs", relax.Stats.RuleEvals, gained)
	}
	if want := int64(relax.PairsExamined) + relax.Stats.RuleEvals*int64(len(s.M.C.Rules[0].Preds)); relax.Stats.PredEvals != want {
		t.Errorf("relax read %d predicates, want %d examined + %d rules x %d predicates",
			relax.Stats.PredEvals, relax.PairsExamined, relax.Stats.RuleEvals, len(s.M.C.Rules[0].Preds))
	}
	if err := s.TightenPredicate(0, 0, thr); err != nil {
		t.Fatal(err)
	}
	if n := s.LastOp.Stats.RuleEvals; n != 0 {
		t.Errorf("tighten back evaluated %d rules, want 0", n)
	}
	if !s.St.Matched.Equal(before) {
		t.Error("tighten back did not restore the match set")
	}
	mustVerify(t, s, "after tighten back")
}

// TestSweepRuleEvalsBounded: a sweep evaluates rules only to ask
// whether a later rule fires for a pair the swept rule owns, at most
// once per pair, so a 9-point sweep enters at most (pairs ri owns) ×
// (rules after ri) rules — not a matching pass per point.
func TestSweepRuleEvalsBounded(t *testing.T) {
	s := newSession(t, baseFunc)
	for ri := range s.M.C.Rules {
		for pj := range s.M.C.Rules[ri].Preds {
			before := s.M.Stats
			sweep(t, s, ri, pj, DefaultSweep(9))
			bound := int64(s.St.RuleTrue[ri].Count() * (len(s.M.C.Rules) - ri - 1))
			if n := s.M.Stats.RuleEvals - before.RuleEvals; n > bound {
				t.Errorf("sweep of rule %d predicate %d entered %d rules, bound %d", ri, pj, n, bound)
			}
		}
	}
}

func TestIncrementalCheaperThanFullRerun(t *testing.T) {
	s := newSession(t, baseFunc)
	r, _ := rule.ParseRule("r4: soundex(name, name) >= 0.6")
	if err := s.AddRule(r); err != nil {
		t.Fatal(err)
	}
	incrementalEvals := s.LastOp.Stats.RuleEvals
	mustRun(t, s)
	fullEvals := s.LastOp.Stats.RuleEvals
	if incrementalEvals >= fullEvals {
		t.Errorf("incremental add-rule evaluated %d rules, full rerun %d", incrementalEvals, fullEvals)
	}
}

func TestMemoryBytes(t *testing.T) {
	s := newSession(t, baseFunc)
	memo, bitmaps := s.MemoryBytes()
	if memo <= 0 || bitmaps <= 0 {
		t.Errorf("memory report memo=%d bitmaps=%d", memo, bitmaps)
	}
}

// Property test: a long random sequence of incremental operations always
// agrees with from-scratch evaluation.
func TestQuickRandomOpSequences(t *testing.T) {
	sims := []string{"jaro", "jaro_winkler", "levenshtein", "jaccard", "trigram", "soundex", "exact_match"}
	attrs := []string{"name", "phone", "city"}
	for trial := 0; trial < 25; trial++ {
		rng := rand.New(rand.NewSource(int64(trial) * 17))
		randPred := func() rule.Predicate {
			op := rule.Ge
			if rng.Intn(3) == 0 {
				op = rule.Lt
			}
			attr := attrs[rng.Intn(len(attrs))]
			return rule.Predicate{
				Feature:   rule.Feature{Sim: sims[rng.Intn(len(sims))], AttrA: attr, AttrB: attr},
				Op:        op,
				Threshold: float64(1+rng.Intn(9)) / 10,
			}
		}
		var f rule.Function
		for ri := 0; ri < 2+rng.Intn(3); ri++ {
			r := rule.Rule{Name: fmt.Sprintf("r%d", ri+1)}
			for pj := 0; pj < 1+rng.Intn(3); pj++ {
				r.Preds = append(r.Preds, randPred())
			}
			f.Rules = append(f.Rules, r)
		}
		a, b, pairs := fixture(t)
		c, err := core.Compile(f, sim.Standard(), a, b)
		if err != nil {
			continue
		}
		s := NewSession(c, pairs)
		mustRun(t, s)
		for step := 0; step < 30; step++ {
			nRules := len(s.M.C.Rules)
			switch rng.Intn(6) {
			case 0: // add rule
				r := rule.Rule{Name: fmt.Sprintf("x%d_%d", trial, step)}
				for pj := 0; pj < 1+rng.Intn(2); pj++ {
					r.Preds = append(r.Preds, randPred())
				}
				if err := s.AddRule(r); err != nil {
					continue
				}
			case 1: // remove rule
				if nRules <= 1 {
					continue
				}
				if err := s.RemoveRule(rng.Intn(nRules)); err != nil {
					t.Fatalf("trial %d step %d: %v", trial, step, err)
				}
			case 2: // add predicate
				if err := s.AddPredicate(rng.Intn(nRules), randPred()); err != nil {
					continue // may contradict: acceptable rejection
				}
			case 3: // remove predicate
				ri := rng.Intn(nRules)
				np := len(s.M.C.Rules[ri].Preds)
				if np <= 1 {
					continue
				}
				if err := s.RemovePredicate(ri, rng.Intn(np)); err != nil {
					t.Fatalf("trial %d step %d: %v", trial, step, err)
				}
			default: // move a threshold either way
				ri := rng.Intn(nRules)
				np := len(s.M.C.Rules[ri].Preds)
				pj := rng.Intn(np)
				delta := float64(1+rng.Intn(3)) / 10
				if rng.Intn(2) == 0 {
					delta = -delta
				}
				nt := s.M.C.Rules[ri].Preds[pj].Threshold + delta
				if err := s.SetThreshold(ri, pj, nt); err != nil {
					continue
				}
			}
			if err := s.VerifyDeep(); err != nil {
				t.Fatalf("trial %d step %d (%s): %v", trial, step, s.LastOp.Op, err)
			}
		}
	}
}

func TestSweepThreshold(t *testing.T) {
	s := newSession(t, baseFunc)
	before := s.MatchCount()
	stateBefore := s.St.Matched.Clone()
	thresholds := DefaultSweep(9)
	points := sweep(t, s, 2, 0, thresholds)
	if len(points) != len(thresholds) {
		t.Fatalf("points = %d", len(points))
	}
	// Rule 2's predicate is a lower bound: match counts must be
	// non-increasing in the threshold.
	for i := 1; i < len(points); i++ {
		if points[i].Matched.Count() > points[i-1].Matched.Count() {
			t.Errorf("sweep not monotone at %v: %d > %d",
				points[i].Threshold, points[i].Matched.Count(), points[i-1].Matched.Count())
		}
	}
	// Session state untouched.
	if s.MatchCount() != before || !s.St.Matched.Equal(stateBefore) {
		t.Error("sweep mutated session state")
	}
	if err := s.Verify(); err != nil {
		t.Fatal(err)
	}
	// A sweep point at the current threshold reproduces current matches.
	cur := s.M.C.Rules[2].Preds[0].Threshold
	pts := sweep(t, s, 2, 0, []float64{cur})
	if !pts[0].Matched.Equal(s.St.Matched) {
		t.Error("sweep at the current threshold differs from current state")
	}
	if pts[0].String() == "" {
		t.Error("empty sweep point string")
	}
}

// TestRunFullParallelMatchesSerial: Run at every worker count
// materializes exactly the state of a static-order scalar Match (the
// Alg 3/4 oracle) — Matched, RuleTrue and PredFalse — and leaves the
// same memo and Stats.
func TestRunFullParallelMatchesSerial(t *testing.T) {
	ref := newSessionNoRun(t, baseFunc)
	oracle := core.NewMatcher(ref.M.C, ref.M.Pairs)
	want := oracle.Match()
	for _, workers := range []int{1, 2, 3, 8} {
		s := newSessionNoRun(t, baseFunc)
		s.M.Workers = workers
		mustRun(t, s)
		if s.LastOp.Op != "full_parallel" {
			t.Fatalf("workers=%d: op = %q", workers, s.LastOp.Op)
		}
		if s.LastOp.PairsExamined != len(s.M.Pairs) {
			t.Fatalf("workers=%d: examined %d pairs", workers, s.LastOp.PairsExamined)
		}
		if !s.St.Equal(want) {
			t.Fatalf("workers=%d: state differs from the static-order scalar Match", workers)
		}
		if s.M.Stats != oracle.Stats {
			t.Fatalf("workers=%d: stats %+v, oracle %+v", workers, s.M.Stats, oracle.Stats)
		}
		if s.M.Memo.Entries() != oracle.Memo.Entries() {
			t.Fatalf("workers=%d: %d memo entries, oracle %d", workers, s.M.Memo.Entries(), oracle.Memo.Entries())
		}
		if err := s.VerifyDeep(); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
	}
}

// newSessionNoRun is newSession without the initial Run.
func newSessionNoRun(t testing.TB, src string) *Session {
	t.Helper()
	a, b, pairs := fixture(t)
	f, err := rule.ParseFunction(src)
	if err != nil {
		t.Fatal(err)
	}
	c, err := core.Compile(f, sim.Standard(), a, b)
	if err != nil {
		t.Fatal(err)
	}
	return NewSession(c, pairs)
}

// Incremental operations must behave identically after a sharded
// bootstrap: check-cache-first resumes and all invariants hold through
// an op sequence.
func TestIncrementalOpsAfterParallelBootstrap(t *testing.T) {
	s := newSessionNoRun(t, baseFunc)
	s.M.Workers = 4
	mustRun(t, s)
	if err := s.VerifyDeep(); err != nil {
		t.Fatal(err)
	}
	r, err := rule.ParseRule("r4: soundex(name, name) >= 0.6 and exact_match(city, city) >= 1")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddRule(r); err != nil {
		t.Fatal(err)
	}
	if err := s.VerifyDeep(); err != nil {
		t.Fatalf("after AddRule: %v", err)
	}
	if err := s.SetThreshold(2, 0, 0.95); err != nil {
		t.Fatal(err)
	}
	if err := s.VerifyDeep(); err != nil {
		t.Fatalf("after tighten: %v", err)
	}
	if err := s.SetThreshold(2, 0, 0.6); err != nil {
		t.Fatal(err)
	}
	if err := s.VerifyDeep(); err != nil {
		t.Fatalf("after relax: %v", err)
	}
	if err := s.RemoveRule(1); err != nil {
		t.Fatal(err)
	}
	if err := s.VerifyDeep(); err != nil {
		t.Fatalf("after RemoveRule: %v", err)
	}
	// A re-run on the now-warm memo recomputes nothing for memoized
	// features and still validates.
	s.M.Workers = 3
	mustRun(t, s)
	if err := s.VerifyDeep(); err != nil {
		t.Fatalf("after warm re-run: %v", err)
	}
}

// TestSweepThresholdParallelMatchesSerial: at every worker count each
// sweep point equals a from-scratch evaluation at its threshold, and
// the sweep leaves state and thresholds as they were.
func TestSweepThresholdParallelMatchesSerial(t *testing.T) {
	thresholds := DefaultSweep(9)
	for _, workers := range []int{0, 1, 2, 3, 8} {
		s := newSession(t, baseFunc)
		stateBefore := s.St.Matched.Clone()
		thrBefore := s.M.C.Rules[2].Preds[0].Threshold
		got, err := s.SweepThresholdParallelCtx(context.Background(), 2, 0, thresholds, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != len(thresholds) {
			t.Fatalf("workers=%d: %d points, want %d", workers, len(got), len(thresholds))
		}
		for i, thr := range thresholds {
			if got[i].Threshold != thr || !got[i].Matched.Equal(freshSweepPoint(s, 2, 0, thr)) {
				t.Fatalf("workers=%d: point %d (thr=%v) differs from a fresh evaluation",
					workers, i, got[i].Threshold)
			}
		}
		// The sweep is a read-only what-if: state and threshold restored.
		if !s.St.Matched.Equal(stateBefore) {
			t.Fatalf("workers=%d: sweep mutated session state", workers)
		}
		if s.M.C.Rules[2].Preds[0].Threshold != thrBefore {
			t.Fatalf("workers=%d: sweep left threshold mutated", workers)
		}
		if err := s.Verify(); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
	}
}

func TestSweepThresholdParallelValidation(t *testing.T) {
	s := newSession(t, baseFunc)
	if _, err := s.SweepThresholdParallelCtx(context.Background(), 99, 0, DefaultSweep(3), 2); err == nil {
		t.Error("bad rule index accepted")
	}
	if _, err := s.SweepThresholdParallelCtx(context.Background(), 0, 99, DefaultSweep(3), 2); err == nil {
		t.Error("bad predicate index accepted")
	}
	pts, err := s.SweepThresholdParallelCtx(context.Background(), 0, 0, nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 0 {
		t.Errorf("empty sweep returned %d points", len(pts))
	}
}

func TestSweepThresholdValidation(t *testing.T) {
	s := newSessionNoRun(t, baseFunc)
	if _, err := s.SweepThresholdParallelCtx(context.Background(), 0, 0, DefaultSweep(3), 1); err == nil {
		t.Error("sweep before Run accepted")
	}
	if got := len(DefaultSweep(0)); got != 9 {
		t.Errorf("default sweep steps = %d", got)
	}
}

// gapSession builds a session over 80 x 80 records (6,400 pairs,
// several chunks at every worker count) with the given worker count.
// Codes differ on every pair except ten, spread ~650 pairs apart, so
// r1 computes the name feature for every pair but those: the memo the
// sharded Run leaves has gaps, and the sweeps that follow read it.
func gapSession(t testing.TB, workers int) *Session {
	t.Helper()
	names := []string{"ann lee", "anne lee", "bo kim", "bob kim", "cy wu", "dee jones", "dee jonas"}
	cities := []string{"madison", "madson", "chicago", "chicag0", "seattle"}
	gapA := map[int]int{10: 3, 20: 11, 30: 19, 40: 27, 50: 35, 60: 43, 70: 51, 0: 60, 11: 68, 21: 76} // B record -> A record
	a := table.MustNew("A", []string{"name", "city", "code"})
	b := table.MustNew("B", []string{"name", "city", "code"})
	for i := 0; i < 80; i++ {
		a.Append(fmt.Sprintf("a%d", i), names[i%len(names)], cities[i%len(cities)], fmt.Sprintf("a%d", i))
		code := fmt.Sprintf("b%d", i)
		if ai, ok := gapA[i]; ok {
			code = fmt.Sprintf("a%d", ai)
		}
		b.Append(fmt.Sprintf("b%d", i), names[(i*3)%len(names)], cities[(i*2)%len(cities)], code)
	}
	f, err := rule.ParseFunction(`
rule r1: exact_match(code, code) < 1 and jaro_winkler(name, name) >= 0.5
rule r2: trigram(city, city) >= 0.5 and jaro_winkler(name, name) >= 0.8
rule r3: levenshtein(city, city) >= 0.7 and jaccard(name, name) >= 0.4`)
	if err != nil {
		t.Fatal(err)
	}
	c, err := core.Compile(f, sim.Standard(), a, b)
	if err != nil {
		t.Fatal(err)
	}
	var pairs []table.Pair
	for i := 0; i < a.Len(); i++ {
		for j := 0; j < b.Len(); j++ {
			pairs = append(pairs, table.Pair{A: int32(i), B: int32(j)})
		}
	}
	s := NewSessionConfig(c, pairs, core.Config{Workers: workers})
	mustRun(t, s)
	return s
}

// TestSweepWorkIndependentOfWorkers: sweeping every predicate at
// workers 1–4 gives the same points, the same memo entries and the
// same six Stats counters — the sharded Run leaves the same state and
// memo at every worker count, and a sweep runs on the calling
// goroutine whatever its workers argument.
func TestSweepWorkIndependentOfWorkers(t *testing.T) {
	type result struct {
		points  [][]SweepPoint
		entries int64
		stats   core.Stats
	}
	run := func(workers int) result {
		s := gapSession(t, workers)
		var r result
		for ri := range s.M.C.Rules {
			for pj := range s.M.C.Rules[ri].Preds {
				r.points = append(r.points, sweep(t, s, ri, pj, DefaultSweep(9)))
			}
		}
		r.entries, r.stats = s.M.Memo.Entries(), s.M.Stats
		return r
	}
	want := run(1)
	for _, workers := range []int{2, 3, 4} {
		got := run(workers)
		if got.entries != want.entries || got.stats != want.stats {
			t.Errorf("workers=%d: %d memo entries, stats %+v; workers=1: %d, %+v",
				workers, got.entries, got.stats, want.entries, want.stats)
		}
		for k := range want.points {
			for ti := range want.points[k] {
				if !got.points[k][ti].Matched.Equal(want.points[k][ti].Matched) {
					t.Fatalf("workers=%d: sweep %d point %d differs", workers, k, ti)
				}
			}
		}
	}
}
