package core

import (
	"fmt"

	"rulematch/internal/bitmap"
	"rulematch/internal/table"
)

// MatchState is the materialized output of a matching run used for
// incremental matching (paper §6.1): the match marks, per-rule true
// sets, and per-predicate false sets.
type MatchState struct {
	// Matched marks candidate pairs the function declared a match.
	Matched *bitmap.Bits
	// RuleTrue[ri] marks pairs for which rule ri evaluated true.
	// Under early exit a pair appears in at most one rule's set: the
	// first rule that matched it.
	RuleTrue []*bitmap.Bits
	// PredFalse[ri][pj] marks pairs for which predicate pj of rule ri
	// evaluated false.
	PredFalse [][]*bitmap.Bits
}

// NewMatchState allocates empty state for the given rule shapes.
func NewMatchState(numPairs int, rules []CompiledRule) *MatchState {
	st := &MatchState{
		Matched:   bitmap.New(numPairs),
		RuleTrue:  make([]*bitmap.Bits, len(rules)),
		PredFalse: make([][]*bitmap.Bits, len(rules)),
	}
	for ri, r := range rules {
		st.RuleTrue[ri] = bitmap.New(numPairs)
		st.PredFalse[ri] = make([]*bitmap.Bits, len(r.Preds))
		for pj := range r.Preds {
			st.PredFalse[ri][pj] = bitmap.New(numPairs)
		}
	}
	return st
}

// ExtendPairs grows every bitmap to cover n pairs, preserving existing
// bits; the new pairs start clear (unevaluated).
func (st *MatchState) ExtendPairs(n int) {
	st.Matched.Grow(n)
	for ri := range st.RuleTrue {
		st.RuleTrue[ri].Grow(n)
		for _, pb := range st.PredFalse[ri] {
			pb.Grow(n)
		}
	}
}

// ClearPairs clears every bit of the given pairs across all bitmaps —
// used to tombstone pairs whose records were deleted.
func (st *MatchState) ClearPairs(dead *bitmap.Bits) {
	for pi := dead.NextSet(0); pi >= 0; pi = dead.NextSet(pi + 1) {
		st.Matched.Clear(pi)
		for ri := range st.RuleTrue {
			st.RuleTrue[ri].Clear(pi)
			for _, pb := range st.PredFalse[ri] {
				pb.Clear(pi)
			}
		}
	}
}

// Gather returns a new state over len(keep) pairs whose pair i carries
// every bit of pair keep[i] of st (see bitmap.Bits.Gather); st is not
// modified. Compacting the pair dimension — dead-pair reclamation in a
// resident session, physical compaction at eviction — passes the
// surviving old indices in ascending order.
func (st *MatchState) Gather(keep []int32) *MatchState {
	out := &MatchState{
		Matched:   st.Matched.Gather(keep),
		RuleTrue:  make([]*bitmap.Bits, len(st.RuleTrue)),
		PredFalse: make([][]*bitmap.Bits, len(st.PredFalse)),
	}
	for ri := range st.RuleTrue {
		out.RuleTrue[ri] = st.RuleTrue[ri].Gather(keep)
		out.PredFalse[ri] = make([]*bitmap.Bits, len(st.PredFalse[ri]))
		for pj, pb := range st.PredFalse[ri] {
			out.PredFalse[ri][pj] = pb.Gather(keep)
		}
	}
	return out
}

// Bytes returns the approximate memory footprint of the bitmaps.
func (st *MatchState) Bytes() int64 {
	b := st.Matched.Bytes()
	for ri := range st.RuleTrue {
		b += st.RuleTrue[ri].Bytes()
		for _, pb := range st.PredFalse[ri] {
			b += pb.Bytes()
		}
	}
	return b
}

// Equal reports whether two states have identical shapes and bit
// contents.
func (st *MatchState) Equal(other *MatchState) bool {
	if !st.Matched.Equal(other.Matched) || len(st.RuleTrue) != len(other.RuleTrue) {
		return false
	}
	for ri := range st.RuleTrue {
		if !st.RuleTrue[ri].Equal(other.RuleTrue[ri]) {
			return false
		}
		if len(st.PredFalse[ri]) != len(other.PredFalse[ri]) {
			return false
		}
		for pj := range st.PredFalse[ri] {
			if !st.PredFalse[ri][pj].Equal(other.PredFalse[ri][pj]) {
				return false
			}
		}
	}
	return true
}

// Validate checks the state against the compiled function and pair set:
// shape (every bitmap sized to the pair count, one bitmap per rule and
// predicate) plus the three invariants the incremental algorithms rely
// on (see the incremental package comment):
//
//  1. Ownership: a matched pair is owned by exactly one rule, that rule
//     currently evaluates true for it, and every earlier rule false.
//  2. Witness: for every unmatched pair, every rule has at least one
//     recorded false bit whose predicate is currently false.
//  3. Soundness: every recorded false bit corresponds to a predicate
//     that is currently false for that pair.
//
// Features are recomputed from scratch, so the check is O(pairs ×
// predicates) similarity computations; intended for tests and for
// verifying sharded output.
func (st *MatchState) Validate(c *Compiled, pairs []table.Pair) error {
	return st.ValidateLive(c, pairs, nil)
}

// ValidateLive is Validate with a tombstone mask: pairs set in dead
// must have every bit clear across all bitmaps (a tombstoned pair
// carries no state), and the three invariants are checked only for
// live pairs. A nil dead checks every pair.
func (st *MatchState) ValidateLive(c *Compiled, pairs []table.Pair, dead *bitmap.Bits) error {
	n := len(pairs)
	if st.Matched == nil || st.Matched.Len() != n {
		return fmt.Errorf("core: match bitmap missing or mis-sized")
	}
	if len(st.RuleTrue) != len(c.Rules) || len(st.PredFalse) != len(c.Rules) {
		return fmt.Errorf("core: state has %d rule bitmaps for %d rules", len(st.RuleTrue), len(c.Rules))
	}
	for ri := range c.Rules {
		if st.RuleTrue[ri].Len() != n {
			return fmt.Errorf("core: rule %d bitmap mis-sized", ri)
		}
		if len(st.PredFalse[ri]) != len(c.Rules[ri].Preds) {
			return fmt.Errorf("core: rule %d has %d predicate bitmaps for %d predicates",
				ri, len(st.PredFalse[ri]), len(c.Rules[ri].Preds))
		}
		for pj := range st.PredFalse[ri] {
			if st.PredFalse[ri][pj].Len() != n {
				return fmt.Errorf("core: rule %d predicate %d bitmap mis-sized", ri, pj)
			}
		}
	}
	evalPred := func(ri, pj, pi int) bool {
		p := &c.Rules[ri].Preds[pj]
		return p.Eval(c.ComputeFeature(p.Feat, pairs[pi]))
	}
	evalRule := func(ri, pi int) bool {
		for pj := range c.Rules[ri].Preds {
			if !evalPred(ri, pj, pi) {
				return false
			}
		}
		return true
	}
	for pi := range pairs {
		if dead != nil && dead.Get(pi) {
			if st.Matched.Get(pi) {
				return fmt.Errorf("core: dead pair %d is marked matched", pi)
			}
			for ri := range c.Rules {
				if st.RuleTrue[ri].Get(pi) {
					return fmt.Errorf("core: dead pair %d has rule %d true bit", pi, ri)
				}
				for pj := range st.PredFalse[ri] {
					if st.PredFalse[ri][pj].Get(pi) {
						return fmt.Errorf("core: dead pair %d has rule %d predicate %d false bit", pi, ri, pj)
					}
				}
			}
			continue
		}
		owners := 0
		for ri := range c.Rules {
			if st.RuleTrue[ri].Get(pi) {
				owners++
				// Invariant 1: the owner fires and every earlier rule
				// does not.
				if !evalRule(ri, pi) {
					return fmt.Errorf("core: pair %d owned by rule %d which is false", pi, ri)
				}
				for rj := 0; rj < ri; rj++ {
					if evalRule(rj, pi) {
						return fmt.Errorf("core: pair %d owned by rule %d but earlier rule %d fires", pi, ri, rj)
					}
				}
			}
			// Invariant 3: recorded false bits are sound.
			for pj := range c.Rules[ri].Preds {
				if st.PredFalse[ri][pj].Get(pi) && evalPred(ri, pj, pi) {
					return fmt.Errorf("core: pair %d has stale false bit on rule %d predicate %d", pi, ri, pj)
				}
			}
		}
		if st.Matched.Get(pi) {
			if owners != 1 {
				return fmt.Errorf("core: matched pair %d has %d owners", pi, owners)
			}
			continue
		}
		if owners != 0 {
			return fmt.Errorf("core: unmatched pair %d has %d owners", pi, owners)
		}
		// Invariant 2: every rule has a currently-false recorded witness.
		for ri := range c.Rules {
			witness := false
			for pj := range c.Rules[ri].Preds {
				if st.PredFalse[ri][pj].Get(pi) && !evalPred(ri, pj, pi) {
					witness = true
					break
				}
			}
			if !witness {
				return fmt.Errorf("core: unmatched pair %d lacks a witness in rule %d", pi, ri)
			}
		}
	}
	return nil
}
