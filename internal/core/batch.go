package core

import "rulematch/internal/bitmap"

// The batch engine is the one whole-run engine (MatchState,
// MatchStateRange, MatchBits and every chunk of a sharded run): it
// evaluates each rule's predicates over fixed-size blocks of pairs. An
// active bitmap starts as the block's not-yet-matched pairs (early exit
// at the OR level), each predicate computes its feature column only for
// active pairs (dynamic memoing at block granularity, reading and
// writing memo columns in bulk), compares against the threshold in a
// tight kernel, and filters the failures out of the active set (early
// exit at the AND level). Match, the pair-at-a-time path, stays as the
// per-pair path of the incremental operations, the replay the cost
// model is calibrated against, and the differential oracle (see the
// parity note on batchEvaluator).

// DefaultBlockSize is the batch engine's pairs-per-block when
// Matcher.BlockSize is zero. Blocks are sized so a block's feature
// column, active bitmap and false bitmap stay resident in L1/L2 while
// amortizing the per-rule bookkeeping over many pairs.
const DefaultBlockSize = 1024

// MatchState is the canonical materializing run: it evaluates the
// function over all pairs with early exit and dynamic memoing on the
// batch engine and returns the full incremental state. False bits are
// recorded in the static predicate order, so they are deterministic
// across block sizes and worker counts.
func (m *Matcher) MatchState() *MatchState {
	st := NewMatchState(len(m.Pairs), m.C.Rules)
	m.batch().run(st, st.Matched, 0, len(m.Pairs))
	return st
}

// MatchStateRange evaluates only the pairs [lo, hi) of the matcher's
// pair set into an existing state st (already extended to cover hi) on
// the batch engine. Block boundaries do not affect per-pair results, so
// evaluating a delta range produces the same bits and memo entries for
// those pairs as a full run would — the property Session.AddRecords'
// parity rests on.
func (m *Matcher) MatchStateRange(st *MatchState, lo, hi int) {
	m.batch().run(st, st.Matched, lo, hi)
}

// MatchBits evaluates the function over all pairs on the batch engine
// and returns only the match marks — the cheapest full run when the
// materialized state is not needed — applying check-cache-first per
// block when configured.
func (m *Matcher) MatchBits() *bitmap.Bits {
	bits := bitmap.New(len(m.Pairs))
	m.batch().run(nil, bits, 0, len(m.Pairs))
	return bits
}

// batchEvaluator runs the columnar block engine over a matcher's pairs.
// Scratch buffers (feature column, active/false bitmaps) are allocated
// once and reused across blocks, so a run allocates O(block size)
// beyond its output.
//
// Parity: with the static predicate order the engine is byte-identical
// to Match — same MatchState, same memo contents, same Stats — for
// every block size. With check-cache-first (marks-only runs) the
// predicate order is chosen once per block from the memo's column
// presence instead of per pair, so Matched stays identical but the
// features computed along the way (and therefore compute/hit counters)
// may differ from a cache-first Match.
type batchEvaluator struct {
	m         *Matcher
	blockSize int

	vals       []float64 // feature column for the current block
	notMatched *bitmap.Bits
	active     *bitmap.Bits
	falseB     *bitmap.Bits
	order      []int // reused predicate-order buffer
}

// batch returns a block evaluator over the matcher's pairs, in blocks
// of blockSize pairs.
func (m *Matcher) batch() *batchEvaluator {
	return &batchEvaluator{m: m, blockSize: m.blockSize()}
}

// blockSize is the batch engine's pairs-per-block: m.BlockSize (0 =
// DefaultBlockSize) rounded up to a multiple of 64, so block boundaries
// fall on bitmap words and every block writes whole words.
func (m *Matcher) blockSize() int {
	bs := m.BlockSize
	if bs <= 0 {
		bs = DefaultBlockSize
	}
	return (bs + 63) &^ 63
}

// run evaluates the pairs [lo, hi) block by block, in ascending pair
// order, into st (nil for marks-only runs) and matched. Blocks start at
// lo, so a run over whole blocks of a larger range evaluates exactly
// the blocks that range would.
func (e *batchEvaluator) run(st *MatchState, matched *bitmap.Bits, lo, hi int) {
	for blo := lo; blo < hi; blo += e.blockSize {
		e.block(st, matched, blo, min(blo+e.blockSize, hi))
	}
}

// block evaluates pairs [lo, hi). All scratch bitmaps are block-local
// (bit i ↔ pair lo+i).
func (e *batchEvaluator) block(st *MatchState, matched *bitmap.Bits, lo, hi int) {
	m := e.m
	nb := hi - lo
	e.ensureScratch(nb)
	e.notMatched.SetAll()
	m.Stats.PairEvals += int64(nb)
	// Check-cache-first is only applied on marks-only runs; the
	// materializing run keeps the static order so recorded false bits
	// are deterministic.
	useCacheFirst := st == nil && m.CheckCacheFirst && m.Memo != nil
	for ri := range m.C.Rules {
		remaining := e.notMatched.Count()
		if remaining == 0 {
			break // OR-level early exit: every pair in the block matched
		}
		m.Stats.RuleEvals += int64(remaining)
		r := &m.C.Rules[ri]
		e.active.CopyFrom(e.notMatched)
		var order []int
		if useCacheFirst {
			order = e.blockOrder(r, lo)
		}
		for k := range r.Preds {
			pj := k
			if order != nil {
				pj = order[k]
			}
			cnt := e.active.Count()
			if cnt == 0 {
				break // AND-level early exit: every active pair failed already
			}
			p := &r.Preds[pj]
			e.featureColumn(p.Feat, lo)
			m.Stats.PredEvals += int64(cnt)
			vals := e.vals
			var rec *bitmap.Bits
			if st != nil {
				e.falseB.Reset()
				rec = e.falseB
			}
			e.active.Filter(func(i int) bool { return p.Eval(vals[i]) }, rec)
			if st != nil {
				st.PredFalse[ri][pj].OrRange(rec, lo)
			}
		}
		if e.active.Count() == 0 {
			continue
		}
		// Survivors passed every predicate: rule ri owns them.
		if st != nil {
			st.RuleTrue[ri].OrRange(e.active, lo)
		}
		matched.OrRange(e.active, lo)
		e.notMatched.AndNot(e.active)
	}
}

// ensureScratch sizes the block-local buffers. Only the final partial
// block triggers a reallocation.
func (e *batchEvaluator) ensureScratch(nb int) {
	if e.notMatched != nil && e.notMatched.Len() == nb {
		return
	}
	e.notMatched = bitmap.New(nb)
	e.active = bitmap.New(nb)
	e.falseB = bitmap.New(nb)
	e.vals = make([]float64, nb)
}

// featureColumn fills e.vals with feature fi for every active pair of
// the block starting at lo, going through the memo — one presence test
// and one slice index per pair, with the row allocated only when a
// value is actually written (matching the scalar Put behavior) — and
// the value cache.
func (e *batchEvaluator) featureColumn(fi, lo int) {
	m := e.m
	active := e.active
	if m.Memo == nil {
		for i := active.NextSet(0); i >= 0; i = active.NextSet(i + 1) {
			e.vals[i] = m.computeRaw(fi, lo+i)
		}
		return
	}
	row, present := m.Memo.column(fi, false)
	for i := active.NextSet(0); i >= 0; i = active.NextSet(i + 1) {
		pi := lo + i
		if present != nil && present.Get(pi) {
			m.Stats.MemoHits++
			e.vals[i] = row[pi]
			continue
		}
		v := m.computeRaw(fi, pi)
		if row == nil {
			row, present = m.Memo.column(fi, true)
		}
		row[pi] = v
		present.Set(pi)
		e.vals[i] = v
	}
}

// blockOrder is the §5.4.3 check-cache-first reorder at block
// granularity: predicates whose feature column is memo-resident for
// every active pair of the block come first, preserving the optimized
// static order within each class. Called at rule entry, when e.active
// holds the block's not-yet-matched pairs.
func (e *batchEvaluator) blockOrder(r *CompiledRule, lo int) []int {
	order := e.order[:0]
	if cap(order) < len(r.Preds) {
		order = make([]int, 0, len(r.Preds))
	}
	for pj := range r.Preds {
		if e.blockCached(r.Preds[pj].Feat, lo) {
			order = append(order, pj)
		}
	}
	if len(order) < len(r.Preds) {
		for pj := range r.Preds {
			if !e.blockCached(r.Preds[pj].Feat, lo) {
				order = append(order, pj)
			}
		}
	}
	e.order = order
	return order
}

// blockCached reports whether feature fi is memoized for every active
// pair of the block at lo.
func (e *batchEvaluator) blockCached(fi, lo int) bool {
	_, present := e.m.Memo.column(fi, false)
	if present == nil {
		return false
	}
	for i := e.active.NextSet(0); i >= 0; i = e.active.NextSet(i + 1) {
		if !present.Get(lo + i) {
			return false
		}
	}
	return true
}
