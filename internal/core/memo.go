package core

import (
	"fmt"

	"rulematch/internal/bitmap"
)

// Memo stores computed feature values per (feature, pair). It is the
// "dynamic memoing" store of Algorithm 4 and the precomputed store of
// Algorithm 2; the incremental matcher keeps it alive across runs.
type Memo interface {
	// Get returns the memoized value of feature fi for pair pi.
	Get(fi, pi int) (float64, bool)
	// Put stores the value of feature fi for pair pi.
	Put(fi, pi int, v float64)
	// Has reports whether the value is present without reading it.
	Has(fi, pi int) bool
	// Bytes returns the approximate memory footprint.
	Bytes() int64
	// Entries returns the number of stored values.
	Entries() int64
	// ExtendPairs grows the pair dimension to numPairs, preserving
	// every stored value; the new pairs start absent. Growing to a
	// smaller or equal size is a no-op.
	ExtendPairs(numPairs int)
	// KeepPairs compacts the pair dimension to len(keep) pairs: new
	// pair i takes every stored value of old pair keep[i], and the
	// values of pairs keep does not list are dropped. keep lists old
	// pair indices in ascending order.
	KeepPairs(keep []int32)
}

// ArrayMemo is the paper's dense two-dimensional array layout (§7.4):
// one float64 row per feature, lazily allocated, plus a presence bitmap.
// Lookups are O(1) with no hashing; memory is numFeatures × numPairs
// once a feature row is touched.
type ArrayMemo struct {
	numPairs int
	vals     [][]float64
	present  []*bitmap.Bits
	entries  int64
	// slab is the arena rows are carved from: feature rows are all
	// numPairs long, so allocating a few rows' worth at a time and
	// slicing with full capacity cuts row allocations (and the GC's
	// pointer-scanning work) without changing the layout rows expose.
	slab []float64
}

// memoSlabRows is how many feature rows one slab allocation covers.
const memoSlabRows = 4

// NewArrayMemo creates an array memo for numPairs candidate pairs.
func NewArrayMemo(numPairs int) *ArrayMemo {
	return &ArrayMemo{numPairs: numPairs}
}

// newRow carves one zeroed numPairs-long row out of the slab arena.
func (m *ArrayMemo) newRow() []float64 {
	n := m.numPairs
	if len(m.slab) < n {
		m.slab = make([]float64, memoSlabRows*n)
	}
	row := m.slab[:n:n]
	m.slab = m.slab[n:]
	return row
}

func (m *ArrayMemo) grow(fi int) {
	for len(m.vals) <= fi {
		m.vals = append(m.vals, nil)
		m.present = append(m.present, nil)
	}
	if m.vals[fi] == nil {
		m.vals[fi] = m.newRow()
		m.present[fi] = bitmap.New(m.numPairs)
	}
}

// Get implements Memo.
func (m *ArrayMemo) Get(fi, pi int) (float64, bool) {
	if fi >= len(m.vals) || m.vals[fi] == nil || !m.present[fi].Get(pi) {
		return 0, false
	}
	return m.vals[fi][pi], true
}

// Has implements Memo.
func (m *ArrayMemo) Has(fi, pi int) bool {
	return fi < len(m.vals) && m.vals[fi] != nil && m.present[fi].Get(pi)
}

// Put implements Memo.
func (m *ArrayMemo) Put(fi, pi int, v float64) {
	m.grow(fi)
	if !m.present[fi].Get(pi) {
		m.entries++
		m.present[fi].Set(pi)
	}
	m.vals[fi][pi] = v
}

// Bytes implements Memo.
func (m *ArrayMemo) Bytes() int64 {
	var b int64
	for fi := range m.vals {
		if m.vals[fi] != nil {
			b += int64(len(m.vals[fi]))*8 + m.present[fi].Bytes()
		}
	}
	return b
}

// Entries implements Memo.
func (m *ArrayMemo) Entries() int64 { return m.entries }

// ExtendPairs implements Memo: every allocated feature row grows to
// numPairs values, keeping stored entries in place.
func (m *ArrayMemo) ExtendPairs(numPairs int) {
	if numPairs <= m.numPairs {
		return
	}
	m.slab = nil // remaining arena space is sized for the old width
	for fi := range m.vals {
		if m.vals[fi] == nil {
			continue
		}
		row := make([]float64, numPairs)
		copy(row, m.vals[fi])
		m.vals[fi] = row
		m.present[fi].Grow(numPairs)
	}
	m.numPairs = numPairs
}

// KeepPairs implements Memo: every allocated feature row is rebuilt at
// len(keep) values, so the memory of dropped pairs is released.
func (m *ArrayMemo) KeepPairs(keep []int32) {
	m.numPairs = len(keep)
	m.slab = nil
	m.entries = 0
	for fi, old := range m.vals {
		if old == nil {
			continue
		}
		row := m.newRow()
		for i, k := range keep {
			row[i] = old[k]
		}
		m.vals[fi] = row
		m.present[fi] = m.present[fi].Gather(keep)
		m.entries += int64(m.present[fi].Count())
	}
}

// column returns feature fi's value row and presence bitmap for bulk
// access by the batch engine. When the row is unallocated it returns
// nils unless alloc is set — callers defer allocation until the first
// write so an all-hit column never grows the memo.
func (m *ArrayMemo) column(fi int, alloc bool) ([]float64, *bitmap.Bits) {
	if fi < len(m.vals) && m.vals[fi] != nil {
		return m.vals[fi], m.present[fi]
	}
	if !alloc {
		return nil, nil
	}
	m.grow(fi)
	return m.vals[fi], m.present[fi]
}

// absorbRange merges a shard memo src — built over the contiguous pair
// range [at, at+srcPairs) of m's pair space, locally indexed from 0 —
// into m at that offset. Presence bitmaps merge word-level
// (bitmap.OrRange); values are copied entry-wise, so warm entries of m
// outside src's presence set are preserved.
func (m *ArrayMemo) absorbRange(src *ArrayMemo, at int) {
	if at < 0 || at+src.numPairs > m.numPairs {
		panic(fmt.Sprintf("core: memo absorb range [%d,%d) out of bounds [0,%d)",
			at, at+src.numPairs, m.numPairs))
	}
	for fi := range src.vals {
		if src.vals[fi] == nil {
			continue
		}
		m.grow(fi)
		before := m.present[fi].Count()
		m.present[fi].OrRange(src.present[fi], at)
		m.entries += int64(m.present[fi].Count() - before)
		vals := m.vals[fi]
		srcVals := src.vals[fi]
		src.present[fi].ForEach(func(pi int) bool {
			vals[at+pi] = srcVals[pi]
			return true
		})
	}
}

// forEachEntry visits every stored (feature, pair, value) triple.
func (m *ArrayMemo) forEachEntry(fn func(fi, pi int, v float64)) {
	for fi := range m.vals {
		if m.vals[fi] == nil {
			continue
		}
		vals := m.vals[fi]
		m.present[fi].ForEach(func(pi int) bool {
			fn(fi, pi, vals[pi])
			return true
		})
	}
}

// absorbMemoRange merges a shard memo (over the pair range [at,
// at+shard pairs) of dst's space) into any Memo implementation, taking
// the word-level ArrayMemo fast path when both sides allow it.
func absorbMemoRange(dst Memo, src *ArrayMemo, at int) {
	if am, ok := dst.(*ArrayMemo); ok {
		am.absorbRange(src, at)
		return
	}
	src.forEachEntry(func(fi, pi int, v float64) {
		dst.Put(fi, at+pi, v)
	})
}

// overlayMemo presents a base memo shifted by a pair offset, with all
// writes diverted to a private shard-local overlay. Shard workers use
// it to read a warm session memo concurrently without synchronizing:
// the base is never written during the parallel phase, and each
// worker's misses land in its own overlay, absorbed into the base after
// the workers join.
type overlayMemo struct {
	base Memo
	off  int
	over *ArrayMemo
}

// newOverlayMemo wraps base (may be nil for a cold start) at pair
// offset off with a private overlay sized for numPairs local pairs.
func newOverlayMemo(base Memo, off, numPairs int) *overlayMemo {
	return &overlayMemo{base: base, off: off, over: NewArrayMemo(numPairs)}
}

// Get implements Memo.
func (m *overlayMemo) Get(fi, pi int) (float64, bool) {
	if v, ok := m.over.Get(fi, pi); ok {
		return v, ok
	}
	if m.base == nil {
		return 0, false
	}
	return m.base.Get(fi, pi+m.off)
}

// Has implements Memo.
func (m *overlayMemo) Has(fi, pi int) bool {
	return m.over.Has(fi, pi) || (m.base != nil && m.base.Has(fi, pi+m.off))
}

// Put implements Memo: writes go to the overlay only.
func (m *overlayMemo) Put(fi, pi int, v float64) { m.over.Put(fi, pi, v) }

// Bytes implements Memo, counting only the overlay (the base is shared
// across workers and would be multiply counted).
func (m *overlayMemo) Bytes() int64 { return m.over.Bytes() }

// Entries implements Memo, counting only the overlay.
func (m *overlayMemo) Entries() int64 { return m.over.Entries() }

// ExtendPairs implements Memo, growing the overlay's local pair space.
func (m *overlayMemo) ExtendPairs(numPairs int) { m.over.ExtendPairs(numPairs) }

// KeepPairs implements Memo. An overlay lives for one sharded run over
// a fixed chunk and never backs a session, so nothing compacts it; a
// call is a bug.
func (m *overlayMemo) KeepPairs(keep []int32) {
	panic("core: KeepPairs on a shard overlay memo")
}

// HashMemo stores values in a hash map keyed by (feature, pair). It uses
// memory proportional to the number of *computed* values — the
// alternative §7.4 suggests when the dense array does not fit — at the
// price of costlier lookups.
type HashMemo struct {
	m map[uint64]float64
}

// NewHashMemo creates an empty hash memo.
func NewHashMemo() *HashMemo {
	return &HashMemo{m: make(map[uint64]float64)}
}

func hashKey(fi, pi int) uint64 { return uint64(uint32(fi))<<32 | uint64(uint32(pi)) }

// Get implements Memo.
func (m *HashMemo) Get(fi, pi int) (float64, bool) {
	v, ok := m.m[hashKey(fi, pi)]
	return v, ok
}

// Has implements Memo.
func (m *HashMemo) Has(fi, pi int) bool {
	_, ok := m.m[hashKey(fi, pi)]
	return ok
}

// Put implements Memo.
func (m *HashMemo) Put(fi, pi int, v float64) { m.m[hashKey(fi, pi)] = v }

// Go map bucket geometry for map[uint64]float64: 8 slots per bucket,
// each bucket holding 8 tophash/control bytes, 8 uint64 keys, 8 float64
// values and an overflow pointer; the runtime doubles the bucket array
// once the load factor passes ~6.5 entries per bucket.
const (
	hashMapHeaderBytes = 48
	hashBucketBytes    = 8 + 8*8 + 8*8 + 8
	hashMaxLoadFactor  = 6.5
)

// Bytes implements Memo, modelling the real footprint of the Go map
// rather than the raw 16-byte payload: entries live in fixed 8-slot
// buckets whose array doubles at load factor ~6.5, so capacity
// overshoots the entry count and each entry effectively costs ~23-47
// bytes depending on fill. Overflow buckets from collisions are not
// modelled, so this is a slight underestimate at high load.
func (m *HashMemo) Bytes() int64 {
	n := int64(len(m.m))
	if n == 0 {
		return hashMapHeaderBytes
	}
	buckets := int64(1)
	for float64(n) > hashMaxLoadFactor*float64(buckets) {
		buckets *= 2
	}
	return hashMapHeaderBytes + buckets*hashBucketBytes
}

// Entries implements Memo.
func (m *HashMemo) Entries() int64 { return int64(len(m.m)) }

// ExtendPairs implements Memo: the map is unbounded in the pair
// dimension already, so this is a no-op.
func (m *HashMemo) ExtendPairs(numPairs int) {}

// KeepPairs implements Memo: surviving entries are re-keyed into a
// fresh map (a Go map never shrinks, so rebuilding is what releases
// the dropped entries' buckets).
func (m *HashMemo) KeepPairs(keep []int32) {
	out := make(map[uint64]float64)
	if len(keep) > 0 {
		remap := make([]int32, keep[len(keep)-1]+1)
		for i := range remap {
			remap[i] = -1
		}
		for i, k := range keep {
			remap[k] = int32(i)
		}
		for key, v := range m.m {
			fi, pi := int(key>>32), int(uint32(key))
			if pi < len(remap) && remap[pi] >= 0 {
				out[hashKey(fi, int(remap[pi]))] = v
			}
		}
	}
	m.m = out
}
