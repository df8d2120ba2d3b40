package core

import (
	"rulematch/internal/bitmap"
	"rulematch/internal/table"
)

// Stats counts the work done by a matching run. Feature computations
// dominate cost; lookups are the cheap δ of the cost model.
type Stats struct {
	FeatureComputes int64 // similarity function invocations
	MemoHits        int64 // memo lookups that found a value
	ValueCacheHits  int64 // value-level cache hits (identical attribute values)
	PredEvals       int64 // predicate comparisons
	RuleEvals       int64 // rules entered
	PairEvals       int64 // pairs evaluated
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.FeatureComputes += other.FeatureComputes
	s.MemoHits += other.MemoHits
	s.ValueCacheHits += other.ValueCacheHits
	s.PredEvals += other.PredEvals
	s.RuleEvals += other.RuleEvals
	s.PairEvals += other.PairEvals
}

// Matcher evaluates a compiled matching function over candidate pairs.
// Configure Memo (nil disables memoization) and CheckCacheFirst (the
// §5.4.3 runtime predicate reordering) before calling a Match method.
type Matcher struct {
	C     *Compiled
	Pairs []table.Pair
	// Memo, when non-nil, enables dynamic memoing: feature values are
	// computed at most once per pair.
	Memo Memo
	// CheckCacheFirst evaluates predicates whose features are already
	// memoized before the others, preserving the optimized static order
	// within each class (§5.4.3).
	CheckCacheFirst bool
	// ValueCache enables a second memo level keyed by (feature,
	// attribute-value pair) — the storage scheme of the paper's
	// Algorithm 2 ("a hash table mapping pairs of attribute values to
	// similarity function outputs"). Candidate pairs frequently repeat
	// attribute values (the same B record appears in many pairs), so
	// identical inputs are computed once across all pairs.
	ValueCache bool
	// Engine selects the whole-run execution strategy for MatchState,
	// MatchBits and the parallel paths: EngineBatch (the zero value)
	// or EngineScalar. Per-pair entry points (Match, EvalPair,
	// EvalRule, FeatureValue) are always scalar.
	Engine Engine
	// BlockSize is the batch engine's pairs-per-block (0 =
	// DefaultBlockSize). Rounded up to a multiple of 64 so block
	// boundaries fall on bitmap words. Results are identical for every
	// block size; the knob trades cache residency against per-block
	// bookkeeping.
	BlockSize int
	// Workers is the configured shard worker count that callers (the
	// incremental session, the debug server) pass to the parallel
	// paths. It is carried configuration, not a cap: the parallel
	// methods take an explicit count and normalize it through
	// NormalizeWorkers (<= 0 means GOMAXPROCS, 1 is serial).
	Workers int
	// Stats accumulates work counters across Match calls.
	Stats Stats

	scratch   []int // reused predicate-order buffer for CheckCacheFirst
	valueMemo map[valueKey]float64
	// sharedVals, when non-nil, replaces valueMemo with a concurrency-
	// safe compute-once store shared across shard matchers, so B records
	// repeating across shards still hit the value cache. Installed by
	// the parallel paths and kept for later serial operations.
	sharedVals *sharedValueCache
}

type valueKey struct {
	fi   int
	a, b string
}

// NewMatcher creates a matcher with dynamic memoing enabled (array memo)
// — the paper's recommended configuration — leaving the compiled
// function's profile cache untouched. Any other configuration goes
// through Config.NewMatcher.
func NewMatcher(c *Compiled, pairs []table.Pair) *Matcher {
	return ConfigFor(c).NewMatcher(c, pairs)
}

// ExtendPairs appends newPairs to the matcher's pair set, growing the
// memo's pair dimension with it. The new pairs are unevaluated; run
// MatchStateRange over them to fold them into a materialized state.
func (m *Matcher) ExtendPairs(newPairs []table.Pair) {
	m.Pairs = append(m.Pairs, newPairs...)
	if m.Memo != nil {
		m.Memo.ExtendPairs(len(m.Pairs))
	}
}

// FeatureValue returns the value of feature fi for pair index pi, going
// through the pair-level memo and, when enabled, the value-level cache.
func (m *Matcher) FeatureValue(fi, pi int) float64 {
	if m.Memo != nil {
		if v, ok := m.Memo.Get(fi, pi); ok {
			m.Stats.MemoHits++
			return v
		}
	}
	v := m.computeRaw(fi, pi)
	if m.Memo != nil {
		m.Memo.Put(fi, pi, v)
	}
	return v
}

// computeRaw computes the similarity, consulting the value-level cache
// when enabled.
func (m *Matcher) computeRaw(fi, pi int) float64 {
	if !m.ValueCache {
		m.Stats.FeatureComputes++
		return m.C.ComputeFeature(fi, m.Pairs[pi])
	}
	f := &m.C.Features[fi]
	p := m.Pairs[pi]
	k := valueKey{fi: fi, a: m.C.A.Value(int(p.A), f.ColA), b: m.C.B.Value(int(p.B), f.ColB)}
	if m.sharedVals != nil {
		return m.sharedVals.resolve(f.Fn, k, &m.Stats)
	}
	if v, ok := m.valueMemo[k]; ok {
		m.Stats.ValueCacheHits++
		return v
	}
	v := f.Fn.Sim(k.a, k.b)
	m.Stats.FeatureComputes++
	if m.valueMemo == nil {
		m.valueMemo = make(map[valueKey]float64)
	}
	m.valueMemo[k] = v
	return v
}

// EvalRule evaluates rule ri for pair pi with early exit, recording
// per-predicate false bits into st when non-nil. Predicate order is the
// rule's static order, or cache-first when configured.
func (m *Matcher) EvalRule(ri, pi int, st *MatchState) bool {
	r := &m.C.Rules[ri]
	m.Stats.RuleEvals++
	if m.CheckCacheFirst && m.Memo != nil {
		order := m.cacheFirstOrder(r, pi)
		for _, pj := range order {
			if !m.evalPred(ri, pj, pi, st) {
				return false
			}
		}
		return true
	}
	for pj := range r.Preds {
		if !m.evalPred(ri, pj, pi, st) {
			return false
		}
	}
	return true
}

// evalPred evaluates predicate pj of rule ri for pair pi.
func (m *Matcher) evalPred(ri, pj, pi int, st *MatchState) bool {
	p := &m.C.Rules[ri].Preds[pj]
	v := m.FeatureValue(p.Feat, pi)
	m.Stats.PredEvals++
	if p.Eval(v) {
		return true
	}
	if st != nil {
		st.PredFalse[ri][pj].Set(pi)
	}
	return false
}

// cacheFirstOrder returns predicate indexes with memo-resident features
// first; within each class the static order is preserved.
func (m *Matcher) cacheFirstOrder(r *CompiledRule, pi int) []int {
	order := m.scratch[:0]
	if cap(order) < len(r.Preds) {
		order = make([]int, 0, len(r.Preds))
	}
	// First pass: cached features.
	for pj := range r.Preds {
		if m.Memo.Has(r.Preds[pj].Feat, pi) {
			order = append(order, pj)
		}
	}
	if len(order) < len(r.Preds) {
		for pj := range r.Preds {
			if !m.Memo.Has(r.Preds[pj].Feat, pi) {
				order = append(order, pj)
			}
		}
	}
	m.scratch = order
	return order
}

// EvalPair evaluates the full function for pair pi with early exit over
// rules, updating st when non-nil. It returns whether the pair matched.
func (m *Matcher) EvalPair(pi int, st *MatchState) bool {
	m.Stats.PairEvals++
	for ri := range m.C.Rules {
		if m.EvalRule(ri, pi, st) {
			if st != nil {
				st.RuleTrue[ri].Set(pi)
				st.Matched.Set(pi)
			}
			return true
		}
	}
	return false
}

// Match runs early-exit evaluation over all pairs, memoized according
// to the Memo field (Algorithm 3 when Memo is nil, Algorithm 4 when
// set), and returns the materialized state.
func (m *Matcher) Match() *MatchState {
	st := NewMatchState(len(m.Pairs), m.C.Rules)
	for pi := range m.Pairs {
		m.EvalPair(pi, st)
	}
	return st
}

// MatchRudimentary is Algorithm 1: every predicate of every rule is
// evaluated for every pair and every feature is recomputed from scratch
// (the memo is bypassed even if configured).
func (m *Matcher) MatchRudimentary() *bitmap.Bits {
	matched := bitmap.New(len(m.Pairs))
	for pi := range m.Pairs {
		m.Stats.PairEvals++
		anyRule := false
		for ri := range m.C.Rules {
			r := &m.C.Rules[ri]
			m.Stats.RuleEvals++
			allTrue := true
			for pj := range r.Preds {
				p := &r.Preds[pj]
				v := m.C.ComputeFeature(p.Feat, m.Pairs[pi])
				m.Stats.FeatureComputes++
				m.Stats.PredEvals++
				if !p.Eval(v) {
					allTrue = false
				}
			}
			if allTrue {
				anyRule = true
			}
		}
		if anyRule {
			matched.Set(pi)
		}
	}
	return matched
}

// Precompute fills the memo with the given features for every pair
// (Algorithm 2's precomputation step). The matcher must have a memo.
func (m *Matcher) Precompute(featIdxs []int) {
	if m.Memo == nil {
		panic("core: Precompute requires a memo")
	}
	for _, fi := range featIdxs {
		for pi := range m.Pairs {
			if m.Memo.Has(fi, pi) {
				continue
			}
			m.Memo.Put(fi, pi, m.computeRaw(fi, pi))
		}
	}
}

// ResetStats zeroes the work counters.
func (m *Matcher) ResetStats() { m.Stats = Stats{} }
