// Package costmodel implements the paper's cost models (Section 4.4):
// C1 (rudimentary), C2 (precomputation), C3 (early exit) and C4 (early
// exit with dynamic memoing), including the memo-presence probability
// α(f, rᵢ) recursion of Equation 2, and the contribution/reduction
// machinery used by the ordering heuristics (Section 5.4.1).
//
// All costs are expected per-pair costs in the same unit as the feature
// costs supplied (seconds when fed from package estimate). Selectivities
// of predicate conjunctions are estimated empirically from the sample
// retained by the estimator, which subsumes the independence assumptions
// the paper makes for its closed forms.
//
// The model is execution-path invariant: the columnar batch engine
// (core.Matcher.MatchState) performs exactly the same per-(feature,
// pair) computes, memo hits and predicate evaluations as the
// pair-at-a-time core.Matcher.Match under the static order, so a model
// calibrated against either path's Stats predicts both.
package costmodel

import (
	"rulematch/internal/core"
	"rulematch/internal/estimate"
)

// Model evaluates expected matching costs for a compiled function.
type Model struct {
	C   *core.Compiled
	Est *estimate.Estimates

	// PaperAlpha selects the paper's α recursion exactly as published
	// (which conditions on the rule being executed). When false, the
	// recursion is weighted by the probability that the rule is reached
	// at all — a refinement that tracks actual runtime more closely.
	PaperAlpha bool
}

// New creates a model over the compiled function and estimates.
func New(c *core.Compiled, est *estimate.Estimates) *Model {
	return &Model{C: c, Est: est}
}

func (m *Model) keyOf(fi int) string { return m.C.Features[fi].Key }

// featCost returns cost(f) for bound feature index fi.
func (m *Model) featCost(fi int) float64 { return m.Est.FeatureCost(m.keyOf(fi)) }

// PrefixSel returns sel(p₁ ∧ … ∧ p_j), the probability that the first j
// predicates of the list all hold — i.e. the probability that predicate
// j+1 is reached under early exit.
func (m *Model) PrefixSel(preds []core.CompiledPred, j int) float64 {
	return m.Est.ConjSel(preds[:j], m.keyOf)
}

// RuleSel returns sel(r): the probability the whole conjunction holds.
func (m *Model) RuleSel(r *core.CompiledRule) float64 {
	return m.Est.ConjSel(r.Preds, m.keyOf)
}

// CostRudimentary is C1: every predicate computed from scratch.
func (m *Model) CostRudimentary() float64 {
	var c float64
	for ri := range m.C.Rules {
		for _, p := range m.C.Rules[ri].Preds {
			c += m.featCost(p.Feat)
		}
	}
	return c
}

// CostPrecompute is C2 for the given feature set: each feature computed
// once plus freq(f) lookups (no early exit).
func (m *Model) CostPrecompute(feats []int) float64 {
	var c float64
	for _, fi := range feats {
		c += m.featCost(fi)
	}
	for ri := range m.C.Rules {
		for range m.C.Rules[ri].Preds {
			c += m.Est.Delta
		}
	}
	return c
}

// CostEarlyExit is C3: early exit over rules and predicates, every
// reached predicate recomputes its feature (no memo).
func (m *Model) CostEarlyExit() float64 {
	reach := m.ReachSeries()
	var c float64
	for ri := range m.C.Rules {
		info := m.Info(&m.C.Rules[ri])
		for j := range info.R.Preds {
			c += reach[ri] * info.Prefix[j] * info.Cost[j]
		}
	}
	return c
}

// ruleReach returns the probability rule ri is executed: none of the
// earlier rules matched. Estimated empirically over the sample.
func (m *Model) ruleReach(ri int) float64 {
	return m.ReachSeries()[ri]
}

// sampleLen returns the length of the estimator's aligned sample vectors
// (0 if no feature has been measured).
func (m *Model) sampleLen() int {
	for fi := range m.C.Features {
		if vals := m.Est.FeatureValues(m.keyOf(fi)); vals != nil {
			return len(vals)
		}
	}
	return 0
}

// ruleTrueOnSample evaluates rule r on sample row i, treating unmeasured
// features as passing with the measured rows they have (conservative).
func (m *Model) ruleTrueOnSample(r *core.CompiledRule, i int) bool {
	for _, p := range r.Preds {
		vals := m.Est.FeatureValues(m.keyOf(p.Feat))
		if vals == nil || i >= len(vals) {
			continue
		}
		if !p.Eval(vals[i]) {
			return false
		}
	}
	return true
}

// Alpha computes α(f, rᵢ) for every feature after executing the rule
// prefix rules[:upto] in order, returning a vector indexed by bound
// feature. This is the Equation 2 recursion.
func (m *Model) Alpha(upto int) []float64 {
	reach := m.ReachSeries()
	alpha := make([]float64, len(m.C.Features))
	for ri := 0; ri < upto; ri++ {
		m.UpdateAlpha(&m.C.Rules[ri], alpha, reach[ri])
	}
	return alpha
}

// UpdateAlpha advances the memo-presence probabilities after executing
// rule r. reach is the probability the rule is executed; the published
// recursion corresponds to reach = 1 (set PaperAlpha to force that).
func (m *Model) UpdateAlpha(r *core.CompiledRule, alpha []float64, reach float64) {
	if m.PaperAlpha {
		reach = 1
	}
	seen := make(map[int]bool, len(r.Preds))
	for j, p := range r.Preds {
		if seen[p.Feat] {
			continue // within-rule repeats don't change presence further
		}
		seen[p.Feat] = true
		// sel(prev(f,r)): probability evaluation reaches this predicate.
		sel := m.PrefixSel(r.Preds, j)
		a := alpha[p.Feat]
		alpha[p.Feat] = a + (1-a)*reach*sel
	}
}

// RuleCostGivenAlpha returns the expected cost of executing rule r when
// the memo-presence probabilities are alpha (Equations 1 and 2
// combined): predicates are reached with their prefix selectivity;
// the first reference to a feature in the rule pays
// (1-α)·cost(f) + α·δ, later references pay δ.
func (m *Model) RuleCostGivenAlpha(r *core.CompiledRule, alpha []float64) float64 {
	var c float64
	seen := make(map[int]bool, len(r.Preds))
	for j, p := range r.Preds {
		sel := m.PrefixSel(r.Preds, j)
		var e float64
		if seen[p.Feat] {
			e = m.Est.Delta
		} else {
			a := 0.0
			if alpha != nil {
				a = alpha[p.Feat]
			}
			e = (1-a)*m.featCost(p.Feat) + a*m.Est.Delta
			seen[p.Feat] = true
		}
		c += sel * e
	}
	return c
}

// CostDM is C4: early exit with dynamic memoing, under the current rule
// and predicate order.
func (m *Model) CostDM() float64 {
	reach := m.ReachSeries()
	alpha := make([]float64, len(m.C.Features))
	var c float64
	for ri := range m.C.Rules {
		info := m.Info(&m.C.Rules[ri])
		c += reach[ri] * m.InfoCost(info, alpha)
		m.InfoUpdateAlpha(info, alpha, reach[ri])
	}
	return c
}

// Contribution returns contribution(r', r): the expected cost saved in
// rule rPrime by executing rule r first, given current presence
// probabilities alpha (Section 5.4.1). Only features shared by both
// rules contribute.
func (m *Model) Contribution(rPrime, r *core.CompiledRule, alpha []float64) float64 {
	// cache(f, r) after executing r, starting from alpha.
	after := append([]float64(nil), alpha...)
	m.UpdateAlpha(r, after, 1)
	inR := make(map[int]bool, len(r.Preds))
	for _, p := range r.Preds {
		inR[p.Feat] = true
	}
	var saved float64
	seen := make(map[int]bool, len(rPrime.Preds))
	for j, p := range rPrime.Preds {
		if seen[p.Feat] {
			continue
		}
		seen[p.Feat] = true
		if !inR[p.Feat] {
			continue
		}
		delta := after[p.Feat] - alpha[p.Feat]
		if delta <= 0 {
			continue
		}
		// A memo hit saves cost(f) − δ, but dictionary-encoded kernels
		// can be cheaper than a hash-memo probe; clamp at zero so a
		// "negative saving" never makes rule ordering chase noise.
		gain := m.featCost(p.Feat) - m.Est.Delta
		if gain < 0 {
			gain = 0
		}
		sel := m.PrefixSel(rPrime.Preds, j)
		saved += sel * delta * gain
	}
	return saved
}

// Reduction returns reduction(r) = Σ_{r' ∈ others} contribution(r', r).
func (m *Model) Reduction(r *core.CompiledRule, others []*core.CompiledRule, alpha []float64) float64 {
	var total float64
	for _, rp := range others {
		if rp == r {
			continue
		}
		total += m.Contribution(rp, r, alpha)
	}
	return total
}
