package incremental

import (
	"fmt"
	"slices"

	"rulematch/internal/bitmap"
	"rulematch/internal/core"
	"rulematch/internal/rule"
)

// AddPredicate adds predicate p to rule ri and incrementally updates
// the match result (Algorithm 7): only pairs previously matched *by*
// rule ri are re-examined; those that now fail are re-evaluated against
// the rules after ri.
//
// The compiled rule stays in canonical form (Lemma 2 per-feature
// groups): a predicate over a feature the rule already bounds is merged
// into the existing group the way Canonicalize would — the strictest
// bound wins, a redundant bound is a no-op (LastOp "add_predicate_noop"),
// and a contradictory bound is rejected with rule.ErrAlwaysFalse.
// Keeping the live predicate list a Canonicalize fixed point matters
// for durability: persist.Load re-parses the printed function through
// Canonicalize and maps the recorded per-predicate bitmaps
// positionally, so a duplicate-feature predicate appended verbatim
// would make the session's own snapshot unloadable.
func (s *Session) AddPredicate(ri int, p rule.Predicate) error {
	if err := s.checkState(); err != nil {
		return err
	}
	if err := s.checkRule(ri); err != nil {
		return err
	}
	cp, err := s.bindPredicate(p)
	if err != nil {
		return err
	}
	r := &s.M.C.Rules[ri]

	// Locate the rule's existing bounds on this feature (canonical form:
	// at most one lower and one upper — adjacent — or a single equality).
	li, ui, ei := -1, -1, -1
	for qj := range r.Preds {
		if r.Preds[qj].Feat != cp.Feat {
			continue
		}
		switch r.Preds[qj].Op {
		case rule.Eq:
			ei = qj
		case rule.Le, rule.Lt:
			ui = qj
		default:
			li = qj
		}
	}
	if li < 0 && ui < 0 && ei < 0 {
		// First bound on this feature: a fresh group appended at the end
		// is canonical (groups keep first-appearance order).
		return s.insertPredicate(ri, len(r.Preds), cp)
	}

	asPred := func(q core.CompiledPred) rule.Predicate {
		return rule.Predicate{Feature: p.Feature, Op: q.Op, Threshold: q.Threshold}
	}
	noop := func() error {
		s.LastOp = OpReport{Op: "add_predicate_noop"}
		return nil
	}
	contradiction := func(other core.CompiledPred) error {
		return fmt.Errorf("incremental: adding %s to rule %q contradicts %s: %w",
			p, r.Name, asPred(other), rule.ErrAlwaysFalse)
	}

	if ei >= 0 {
		// The group is an equality; any consistent add is subsumed by it.
		if p.Op == rule.Eq && p.Threshold == r.Preds[ei].Threshold {
			return noop()
		}
		if p.Op != rule.Eq && p.Eval(r.Preds[ei].Threshold) {
			return noop()
		}
		return contradiction(r.Preds[ei])
	}
	if p.Op == rule.Eq {
		// Replacing a bound group by an equality would delete predicates
		// and their recorded state; keep that edit explicit.
		return fmt.Errorf("incremental: rule %q already bounds %s; remove the bounds before adding an equality predicate",
			r.Name, p.Feature.Key())
	}

	if p.Op.Upper() {
		if li >= 0 && rule.BoundsContradict(asPred(r.Preds[li]), p) {
			return contradiction(r.Preds[li])
		}
		if ui >= 0 {
			if !rule.StricterUpper(p, asPred(r.Preds[ui])) {
				return noop()
			}
			return s.mergePredicate(ri, ui, cp)
		}
		// New upper bound: canonical position is right after the group's
		// lower bound.
		return s.insertPredicate(ri, li+1, cp)
	}
	if ui >= 0 && rule.BoundsContradict(p, asPred(r.Preds[ui])) {
		return contradiction(r.Preds[ui])
	}
	if li >= 0 {
		if !rule.StricterLower(p, asPred(r.Preds[li])) {
			return noop()
		}
		return s.mergePredicate(ri, li, cp)
	}
	// New lower bound: canonical position is right before the group's
	// upper bound.
	return s.insertPredicate(ri, ui, cp)
}

// insertPredicate splices cp (with a fresh false bitmap) into rule ri
// at predicate position pos and constrains the rule's current matches.
func (s *Session) insertPredicate(ri, pos int, cp core.CompiledPred) error {
	before := s.M.Stats
	r := &s.M.C.Rules[ri]
	r.Preds = append(r.Preds, core.CompiledPred{})
	copy(r.Preds[pos+1:], r.Preds[pos:])
	r.Preds[pos] = cp
	pf := append(s.St.PredFalse[ri], nil)
	copy(pf[pos+1:], pf[pos:])
	pf[pos] = bitmap.New(len(s.M.Pairs))
	s.St.PredFalse[ri] = pf
	examined := s.constrainScan(ri, pos)
	s.LastOp = OpReport{Op: "add_predicate", PairsExamined: examined, Stats: diffStats(before, s.M.Stats)}
	return nil
}

// mergePredicate replaces predicate pj of rule ri by the strictly
// stricter same-direction bound cp and constrains the rule's current
// matches. The recorded false set is kept: every pair that failed the
// old bound fails the stricter one too.
func (s *Session) mergePredicate(ri, pj int, cp core.CompiledPred) error {
	before := s.M.Stats
	s.M.C.Rules[ri].Preds[pj] = cp
	examined := s.constrainScan(ri, pj)
	s.LastOp = OpReport{Op: "add_predicate", PairsExamined: examined, Stats: diffStats(before, s.M.Stats)}
	return nil
}

// constrainScan re-examines the pairs currently matched by rule ri
// against predicate pj (just added or made stricter): failures are
// recorded in the predicate's false set, the pair falls out of the
// rule's match set and moves to the first later rule that fires.
// Live NextSet iteration is safe: the loop body only clears the
// *current* bit of RuleTrue[ri] (never a later one) and firstFiring
// writes to other rules' bitmaps.
func (s *Session) constrainScan(ri, pj int) int {
	cp := s.M.C.Rules[ri].Preds[pj]
	examined := 0
	owned := s.St.RuleTrue[ri]
	for pi := owned.NextSet(0); pi >= 0; pi = owned.NextSet(pi + 1) {
		examined++
		v := s.M.FeatureValue(cp.Feat, pi)
		s.M.Stats.PredEvals++
		if cp.Eval(v) {
			continue
		}
		s.St.PredFalse[ri][pj].Set(pi)
		s.St.RuleTrue[ri].Clear(pi)
		s.St.Matched.Clear(pi)
		if rj := s.firstFiring(ri+1, pi, s.St); rj >= 0 {
			s.St.RuleTrue[rj].Set(pi)
			s.St.Matched.Set(pi)
		}
	}
	return examined
}

// TightenPredicate makes predicate pj of rule ri stricter by moving its
// threshold (Algorithm 7's second guise: a stricter predicate is an
// added constraint). For >=/> predicates the threshold must increase,
// for <=/< it must decrease.
func (s *Session) TightenPredicate(ri, pj int, newThreshold float64) error {
	if err := s.checkState(); err != nil {
		return err
	}
	if err := s.checkPred(ri, pj); err != nil {
		return err
	}
	p := &s.M.C.Rules[ri].Preds[pj]
	if err := checkDirection(p, newThreshold, true); err != nil {
		return err
	}
	before := s.M.Stats
	s.moveThreshold(p, newThreshold)

	examined := s.constrainScan(ri, pj)
	s.LastOp = OpReport{Op: "tighten_predicate", PairsExamined: examined, Stats: diffStats(before, s.M.Stats)}
	return nil
}

// RelaxPredicate makes predicate pj of rule ri less strict (Algorithm
// 8). Pairs for which the predicate was recorded false are re-examined:
// unmatched ones may now match through rule ri; matched ones owned by a
// later rule may migrate ownership to ri to preserve the first-true-rule
// invariant.
func (s *Session) RelaxPredicate(ri, pj int, newThreshold float64) error {
	if err := s.checkState(); err != nil {
		return err
	}
	if err := s.checkPred(ri, pj); err != nil {
		return err
	}
	p := &s.M.C.Rules[ri].Preds[pj]
	if err := checkDirection(p, newThreshold, false); err != nil {
		return err
	}
	before := s.M.Stats
	s.moveThreshold(p, newThreshold)

	examined, moves := 0, 0
	// Safe live iteration: the body clears only the current bit of this
	// false set (regain touches pair pi alone, and the relaxed predicate
	// evaluates true for it, so the bit stays clear).
	falseSet := s.St.PredFalse[ri][pj]
	for pi := falseSet.NextSet(0); pi >= 0; pi = falseSet.NextSet(pi + 1) {
		examined++
		v := s.M.FeatureValue(p.Feat, pi)
		s.M.Stats.PredEvals++
		if !p.Eval(v) {
			continue // still false; the recorded bit stays sound
		}
		falseSet.Clear(pi)
		if s.regain(ri, pi) {
			moves++
		}
	}
	s.LastOp = OpReport{Op: "relax_predicate", PairsExamined: examined, Stats: diffStats(before, s.M.Stats), OwnershipMoves: moves}
	return nil
}

// moveThreshold sets predicate p's threshold and re-renders its Key,
// which rule listings serve and a reloaded session renders afresh.
func (s *Session) moveThreshold(p *core.CompiledPred, t float64) {
	p.Threshold = t
	p.Key = rule.Predicate{Feature: s.M.C.Features[p.Feat].Feature, Op: p.Op, Threshold: t}.Key()
}

// regain re-examines pair pi after rule ri lost its recorded false bit
// for it (Algorithm 8). If ri now fires, an unmatched pair matches and
// a pair a later rule owns moves to ri (invariant 1); a pair an earlier
// rule owns stays put. It reports whether ownership moved. All of ri's
// predicates are re-checked (footnote 2: check-cache-first means the
// stored exit point is order-dependent).
func (s *Session) regain(ri, pi int) bool {
	owner := -1 // a later rule that owns pi; ri itself held a false bit for it
	if s.St.Matched.Get(pi) {
		k := slices.IndexFunc(s.St.RuleTrue[ri+1:], func(rt *bitmap.Bits) bool { return rt.Get(pi) })
		if k < 0 {
			return false // an earlier rule owns pi
		}
		owner = ri + 1 + k
	}
	if !s.evalRuleRecordFalse(ri, pi) {
		return false
	}
	s.St.RuleTrue[ri].Set(pi)
	s.St.Matched.Set(pi)
	if owner < 0 {
		return false
	}
	s.St.RuleTrue[owner].Clear(pi)
	return true
}

// RemovePredicate deletes predicate pj from rule ri (Algorithm 8 with
// an always-true replacement): pairs whose recorded failure was this
// predicate are re-examined against the rest of the rule.
func (s *Session) RemovePredicate(ri, pj int) error {
	if err := s.checkState(); err != nil {
		return err
	}
	if err := s.checkPred(ri, pj); err != nil {
		return err
	}
	r := &s.M.C.Rules[ri]
	if len(r.Preds) == 1 {
		return fmt.Errorf("incremental: cannot remove the only predicate of rule %q; remove the rule instead", r.Name)
	}
	before := s.M.Stats
	// Capture the spliced-out false set before removing it from the
	// state: the loop below iterates it live while evalRuleRecordFalse
	// mutates only the *remaining* predicates' bitmaps.
	falseSet := s.St.PredFalse[ri][pj]
	r.Preds = append(r.Preds[:pj], r.Preds[pj+1:]...)
	s.St.PredFalse[ri] = append(s.St.PredFalse[ri][:pj], s.St.PredFalse[ri][pj+1:]...)

	examined, moves := 0, 0
	for pi := falseSet.NextSet(0); pi >= 0; pi = falseSet.NextSet(pi + 1) {
		examined++
		if s.regain(ri, pi) {
			moves++
		}
	}
	s.LastOp = OpReport{Op: "remove_predicate", PairsExamined: examined, Stats: diffStats(before, s.M.Stats), OwnershipMoves: moves}
	return nil
}

// RemoveRule deletes rule ri (Algorithm 9): only pairs matched by ri are
// re-evaluated, and only against the rules that followed it.
func (s *Session) RemoveRule(ri int) error {
	if err := s.checkState(); err != nil {
		return err
	}
	if err := s.checkRule(ri); err != nil {
		return err
	}
	before := s.M.Stats
	// Capture the removed rule's match set before splicing it out of the
	// state; firstFiring writes only to the surviving rules' bitmaps, so
	// live NextSet iteration is safe.
	orphans := s.St.RuleTrue[ri]
	s.M.C.RemoveRule(ri)
	s.St.RuleTrue = append(s.St.RuleTrue[:ri], s.St.RuleTrue[ri+1:]...)
	s.St.PredFalse = append(s.St.PredFalse[:ri], s.St.PredFalse[ri+1:]...)
	examined := 0
	for pi := orphans.NextSet(0); pi >= 0; pi = orphans.NextSet(pi + 1) {
		examined++
		s.St.Matched.Clear(pi)
		// Rules formerly after ri now start at index ri.
		if rj := s.firstFiring(ri, pi, s.St); rj >= 0 {
			s.St.RuleTrue[rj].Set(pi)
			s.St.Matched.Set(pi)
		}
	}
	s.LastOp = OpReport{Op: "remove_rule", PairsExamined: examined, Stats: diffStats(before, s.M.Stats)}
	return nil
}

// AddRule appends a new rule (Algorithm 10): only currently unmatched
// pairs are evaluated, and only against the new rule.
func (s *Session) AddRule(r rule.Rule) error {
	if err := s.checkState(); err != nil {
		return err
	}
	cr, err := s.M.C.CompileRule(r)
	if err != nil {
		return err
	}
	before := s.M.Stats
	s.M.C.Rules = append(s.M.C.Rules, cr)
	ri := len(s.M.C.Rules) - 1
	s.St.RuleTrue = append(s.St.RuleTrue, bitmap.New(len(s.M.Pairs)))
	pf := make([]*bitmap.Bits, len(cr.Preds))
	for i := range pf {
		pf[i] = bitmap.New(len(s.M.Pairs))
	}
	s.St.PredFalse = append(s.St.PredFalse, pf)

	examined := 0
	for pi := range s.M.Pairs {
		if s.St.Matched.Get(pi) || (s.dead != nil && s.dead.Get(pi)) {
			continue
		}
		examined++
		if s.M.EvalRule(ri, pi, s.St) {
			s.St.RuleTrue[ri].Set(pi)
			s.St.Matched.Set(pi)
		}
	}
	s.LastOp = OpReport{Op: "add_rule", PairsExamined: examined, Stats: diffStats(before, s.M.Stats)}
	return nil
}

// SetThreshold changes the threshold of predicate pj of rule ri,
// dispatching to TightenPredicate or RelaxPredicate based on the
// direction of the change. A no-op change returns nil immediately.
func (s *Session) SetThreshold(ri, pj int, newThreshold float64) error {
	if err := s.checkState(); err != nil {
		return err
	}
	if err := s.checkPred(ri, pj); err != nil {
		return err
	}
	p := &s.M.C.Rules[ri].Preds[pj]
	if p.Threshold == newThreshold {
		s.LastOp = OpReport{Op: "set_threshold_noop"}
		return nil
	}
	stricter := newThreshold > p.Threshold
	if p.Op.Upper() {
		stricter = !stricter
	}
	if p.Op == rule.Eq {
		return fmt.Errorf("incremental: cannot move the threshold of an equality predicate incrementally; remove and re-add it")
	}
	if stricter {
		return s.TightenPredicate(ri, pj, newThreshold)
	}
	return s.RelaxPredicate(ri, pj, newThreshold)
}

func (s *Session) checkPred(ri, pj int) error {
	if err := s.checkRule(ri); err != nil {
		return err
	}
	if pj < 0 || pj >= len(s.M.C.Rules[ri].Preds) {
		return fmt.Errorf("incremental: predicate index %d out of range [0,%d) in rule %q",
			pj, len(s.M.C.Rules[ri].Preds), s.M.C.Rules[ri].Name)
	}
	return nil
}

// checkDirection validates that the threshold move matches the intended
// strictness direction for the predicate's operator.
func checkDirection(p *core.CompiledPred, newThreshold float64, tighten bool) error {
	if p.Op == rule.Eq {
		return fmt.Errorf("incremental: equality predicates cannot be tightened or relaxed")
	}
	raising := newThreshold > p.Threshold
	stricter := raising != p.Op.Upper()
	if newThreshold == p.Threshold {
		return fmt.Errorf("incremental: threshold unchanged (%g)", newThreshold)
	}
	if stricter != tighten {
		verb := "tighten"
		if !tighten {
			verb = "relax"
		}
		return fmt.Errorf("incremental: moving %s threshold from %g to %g does not %s it",
			p.Op, p.Threshold, newThreshold, verb)
	}
	return nil
}
