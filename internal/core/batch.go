package core

import "rulematch/internal/bitmap"

// Engine selects the whole-run execution strategy of a Matcher.
//
// The batch engine evaluates each rule's predicates over fixed-size
// blocks of pairs: an active bitmap starts as the block's not-yet-
// matched pairs (early exit at the OR level), each predicate computes
// its feature column only for active pairs (dynamic memoing at block
// granularity, reading and writing memo columns in bulk), compares
// against the threshold in a tight kernel, and filters the failures out
// of the active set (early exit at the AND level). Per-pair work is
// identical to the scalar path, so the materialized MatchState — match
// bitmaps, per-predicate false bits, memo contents — and the Stats
// counters are byte-identical to a static-order scalar run, for every
// block size.
//
// The scalar engine is the pair-at-a-time reference implementation
// (Algorithms 3/4 as written) and the per-pair replay the cost model is
// calibrated against; it also honors per-pair check-cache-first. It is
// kept as the differential oracle and for the batch-vs-scalar ablation.
type Engine int

const (
	// EngineBatch is the columnar block engine, and the zero Engine.
	EngineBatch Engine = iota
	// EngineScalar is the pair-at-a-time reference path.
	EngineScalar
)

// DefaultBlockSize is the batch engine's pairs-per-block when
// Matcher.BlockSize is zero. Blocks are sized so a block's feature
// column, active bitmap and false bitmap stay resident in L1/L2 while
// amortizing the per-rule bookkeeping over many pairs.
const DefaultBlockSize = 1024

// MatchState is the canonical materializing run: it evaluates the
// function over all pairs with early exit and dynamic memoing and
// returns the full incremental state, executed by the configured
// engine. The batch engine records false bits in the static predicate
// order (deterministic across block sizes and worker counts); the
// scalar engine honors CheckCacheFirst, so its recorded exit points
// depend on memo history — see the parity caveat on BatchEvaluator.
func (m *Matcher) MatchState() *MatchState {
	if m.Engine == EngineScalar {
		return m.Match()
	}
	return m.Batch().MatchState()
}

// MatchStateRange evaluates only the pairs [lo, hi) of the matcher's
// pair set into an existing state st (already extended to cover hi),
// using the configured engine. Block boundaries do not affect per-pair
// results (see the Engine comment), so evaluating a delta range
// produces the same bits and memo entries for those pairs as a full
// run would — the property Session.AddRecords' parity rests on.
func (m *Matcher) MatchStateRange(st *MatchState, lo, hi int) {
	if lo >= hi {
		return
	}
	if m.Engine == EngineScalar {
		for pi := lo; pi < hi; pi++ {
			m.EvalPair(pi, st)
		}
		return
	}
	e := m.Batch()
	for blo := lo; blo < hi; blo += e.blockSize {
		bhi := blo + e.blockSize
		if bhi > hi {
			bhi = hi
		}
		e.block(st, st.Matched, blo, bhi)
	}
}

// MatchBits evaluates the function over all pairs and returns only the
// match marks — the cheapest full run when the materialized state is
// not needed — executed by the configured engine. Both engines apply
// check-cache-first when configured: the scalar engine per pair, the
// batch engine per block.
func (m *Matcher) MatchBits() *bitmap.Bits {
	if m.Engine == EngineScalar {
		bits := bitmap.New(len(m.Pairs))
		for pi := range m.Pairs {
			if m.EvalPair(pi, nil) {
				bits.Set(pi)
			}
		}
		return bits
	}
	return m.Batch().MatchBits()
}

// BatchEvaluator runs the columnar block engine over a matcher's pairs.
// Scratch buffers (feature column, active/false bitmaps) are allocated
// once and reused across blocks, so a full run allocates O(block size)
// beyond its output.
//
// Parity: with the static predicate order the engine is byte-identical
// to the scalar path — same MatchState, same memo contents, same Stats
// — for every block size. With check-cache-first (MatchBits only) the
// predicate order is chosen once per block from the memo's column
// presence instead of per pair, so Matched stays identical but the
// features computed along the way (and therefore compute/hit counters)
// may differ from the scalar cache-first run.
type BatchEvaluator struct {
	m         *Matcher
	blockSize int

	vals       []float64 // feature column for the current block
	notMatched *bitmap.Bits
	active     *bitmap.Bits
	falseB     *bitmap.Bits
	order      []int // reused predicate-order buffer
}

// Batch returns a block evaluator over the matcher's pairs. The block
// size is m.BlockSize (0 = DefaultBlockSize), rounded up to a multiple
// of 64 so block boundaries fall on bitmap words and every OrRange
// stitch is whole-word.
func (m *Matcher) Batch() *BatchEvaluator {
	bs := m.BlockSize
	if bs <= 0 {
		bs = DefaultBlockSize
	}
	bs = (bs + 63) &^ 63
	return &BatchEvaluator{m: m, blockSize: bs}
}

// MatchState materializes the full incremental state (match marks,
// per-rule true sets, per-predicate false sets) block by block, in the
// static predicate order.
func (e *BatchEvaluator) MatchState() *MatchState {
	st := NewMatchState(len(e.m.Pairs), e.m.C.Rules)
	e.run(st, st.Matched)
	return st
}

// MatchBits returns only the match marks, applying check-cache-first
// per block when the matcher has it configured.
func (e *BatchEvaluator) MatchBits() *bitmap.Bits {
	bits := bitmap.New(len(e.m.Pairs))
	e.run(nil, bits)
	return bits
}

// run evaluates every block in ascending pair order. st is nil for
// marks-only runs.
func (e *BatchEvaluator) run(st *MatchState, matched *bitmap.Bits) {
	n := len(e.m.Pairs)
	for lo := 0; lo < n; lo += e.blockSize {
		hi := lo + e.blockSize
		if hi > n {
			hi = n
		}
		e.block(st, matched, lo, hi)
	}
}

// block evaluates pairs [lo, hi). All scratch bitmaps are block-local
// (bit i ↔ pair lo+i).
func (e *BatchEvaluator) block(st *MatchState, matched *bitmap.Bits, lo, hi int) {
	m := e.m
	nb := hi - lo
	e.ensureScratch(nb)
	e.notMatched.SetAll()
	m.Stats.PairEvals += int64(nb)
	// Check-cache-first is only applied on marks-only runs; the
	// materializing run keeps the static order so recorded false bits
	// are deterministic (the same choice MatchStateParallel makes).
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
func (e *BatchEvaluator) ensureScratch(nb int) {
	if e.notMatched != nil && e.notMatched.Len() == nb {
		return
	}
	e.notMatched = bitmap.New(nb)
	e.active = bitmap.New(nb)
	e.falseB = bitmap.New(nb)
	e.vals = make([]float64, nb)
}

// featureColumn fills e.vals with feature fi for every active pair of
// the block starting at lo, going through the memo (bulk column reads
// and writes on the array layouts) and the value cache.
func (e *BatchEvaluator) featureColumn(fi, lo int) {
	m := e.m
	active := e.active
	switch memo := m.Memo.(type) {
	case *ArrayMemo:
		e.columnArray(memo, fi, lo)
	case *OverlayMemo:
		e.columnOverlay(memo, fi, lo)
	case nil:
		for i := active.NextSet(0); i >= 0; i = active.NextSet(i + 1) {
			e.vals[i] = m.computeRaw(fi, lo+i)
		}
	default:
		for i := active.NextSet(0); i >= 0; i = active.NextSet(i + 1) {
			pi := lo + i
			if v, ok := memo.Get(fi, pi); ok {
				m.Stats.MemoHits++
				e.vals[i] = v
				continue
			}
			v := m.computeRaw(fi, pi)
			memo.Put(fi, pi, v)
			e.vals[i] = v
		}
	}
}

// columnArray is the dense-memo fast path: one presence test and one
// slice index per pair, no interface calls, with the row allocated only
// when a value is actually written (matching the scalar Put behavior).
func (e *BatchEvaluator) columnArray(am *ArrayMemo, fi, lo int) {
	m := e.m
	active := e.active
	row, present := am.column(fi, false)
	for i := active.NextSet(0); i >= 0; i = active.NextSet(i + 1) {
		pi := lo + i
		if present != nil && present.Get(pi) {
			m.Stats.MemoHits++
			e.vals[i] = row[pi]
			continue
		}
		v := m.computeRaw(fi, pi)
		if row == nil {
			row, present = am.column(fi, true)
		}
		row[pi] = v
		present.Set(pi)
		am.entries++
		e.vals[i] = v
	}
}

// columnOverlay reads the shard overlay column first, falls back to the
// (read-only, concurrently shared) warm base at the shard offset, and
// writes misses to the overlay column — the batch analogue of
// OverlayMemo.Get/Put.
func (e *BatchEvaluator) columnOverlay(om *OverlayMemo, fi, lo int) {
	m := e.m
	active := e.active
	over := om.over
	row, present := over.column(fi, false)
	for i := active.NextSet(0); i >= 0; i = active.NextSet(i + 1) {
		pi := lo + i
		if present != nil && present.Get(pi) {
			m.Stats.MemoHits++
			e.vals[i] = row[pi]
			continue
		}
		if om.base != nil {
			if v, ok := om.base.Get(fi, pi+om.off); ok {
				m.Stats.MemoHits++
				e.vals[i] = v
				continue
			}
		}
		v := m.computeRaw(fi, pi)
		if row == nil {
			row, present = over.column(fi, true)
		}
		row[pi] = v
		present.Set(pi)
		over.entries++
		e.vals[i] = v
	}
}

// blockOrder is the §5.4.3 check-cache-first reorder at block
// granularity: predicates whose feature column is memo-resident for
// every active pair of the block come first, preserving the optimized
// static order within each class. Called at rule entry, when e.active
// holds the block's not-yet-matched pairs.
func (e *BatchEvaluator) blockOrder(r *CompiledRule, lo int) []int {
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
func (e *BatchEvaluator) blockCached(fi, lo int) bool {
	memo := e.m.Memo
	for i := e.active.NextSet(0); i >= 0; i = e.active.NextSet(i + 1) {
		if !memo.Has(fi, lo+i) {
			return false
		}
	}
	return true
}
