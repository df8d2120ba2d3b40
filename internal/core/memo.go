package core

import (
	"fmt"
	"sync"

	"rulematch/internal/bitmap"
)

// ArrayMemo stores computed feature values per (feature, pair). It is
// the "dynamic memoing" store of Algorithm 4 and the precomputed store
// of Algorithm 2; the incremental matcher keeps it alive across runs.
// The layout is the paper's dense two-dimensional array (§7.4): one
// float64 row per feature, lazily allocated, plus a presence bitmap.
// Lookups are O(1) with no hashing; memory is numFeatures × numPairs
// once a feature row is touched.
//
// The chunks of a sharded run share one memo and reach it only through
// column, whose mutex guards the row table; each chunk then reads and
// writes only its own pairs' row slots and presence words. Every other
// method needs the memo to itself.
type ArrayMemo struct {
	mu       sync.Mutex
	numPairs int
	vals     [][]float64
	present  []*bitmap.Bits
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
	m.extend(fi)
	if m.vals[fi] == nil {
		m.vals[fi] = m.newRow()
		m.present[fi] = bitmap.New(m.numPairs)
	}
}

// extend makes room for feature fi's row without allocating it.
func (m *ArrayMemo) extend(fi int) {
	for len(m.vals) <= fi {
		m.vals = append(m.vals, nil)
		m.present = append(m.present, nil)
	}
}

// Get returns the memoized value of feature fi for pair pi.
func (m *ArrayMemo) Get(fi, pi int) (float64, bool) {
	if fi >= len(m.vals) || m.vals[fi] == nil || !m.present[fi].Get(pi) {
		return 0, false
	}
	return m.vals[fi][pi], true
}

// Has reports whether the value of feature fi for pair pi is present
// without reading it.
func (m *ArrayMemo) Has(fi, pi int) bool {
	return fi < len(m.vals) && m.vals[fi] != nil && m.present[fi].Get(pi)
}

// Put stores the value of feature fi for pair pi.
func (m *ArrayMemo) Put(fi, pi int, v float64) {
	m.grow(fi)
	m.present[fi].Set(pi)
	m.vals[fi][pi] = v
}

// Row returns feature fi's value row and presence bitmap — the memo's
// own storage, not copies — or nils when the row is unallocated. Value
// pi is meaningful only where bit pi is set. It lets a snapshot encoder
// read whole rows in place; callers must not modify them.
func (m *ArrayMemo) Row(fi int) ([]float64, *bitmap.Bits) {
	return m.column(fi, false)
}

// SetRow installs a decoded row as feature fi's: vals and present must
// both cover the memo's numPairs pairs, and the memo takes ownership of
// them. A snapshot loader uses it to restore a row without a Put per
// value.
func (m *ArrayMemo) SetRow(fi int, vals []float64, present *bitmap.Bits) {
	if len(vals) != m.numPairs || present.Len() != m.numPairs {
		panic(fmt.Sprintf("core: memo row of %d values and %d presence bits for %d pairs", len(vals), present.Len(), m.numPairs))
	}
	m.extend(fi)
	m.vals[fi], m.present[fi] = vals, present
}

// Bytes returns the memory footprint of the allocated rows and their
// presence bitmaps.
func (m *ArrayMemo) Bytes() int64 {
	var b int64
	for fi := range m.vals {
		if m.vals[fi] != nil {
			b += int64(len(m.vals[fi]))*8 + m.present[fi].Bytes()
		}
	}
	return b
}

// Entries returns the number of stored values: the set presence bits.
func (m *ArrayMemo) Entries() int64 {
	var n int64
	for _, p := range m.present {
		if p != nil {
			n += int64(p.Count())
		}
	}
	return n
}

// ExtendPairs grows the pair dimension to numPairs: every allocated
// feature row grows, keeping stored entries in place, and the new pairs
// start absent. Growing to a smaller or equal size is a no-op.
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

// KeepPairs compacts the pair dimension to len(keep) pairs: new pair i
// takes every stored value of old pair keep[i], and the values of pairs
// keep does not list are dropped. keep lists old pair indices in
// ascending order. Every allocated feature row is rebuilt at len(keep)
// values, so the memory of dropped pairs is released.
func (m *ArrayMemo) KeepPairs(keep []int32) {
	m.numPairs = len(keep)
	m.slab = nil
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
	}
}

// column returns feature fi's value row and presence bitmap for bulk
// access by the batch engine. When the row is unallocated it returns
// nils unless alloc is set — callers defer allocation until the first
// write so an all-hit column never grows the memo. It is the one method
// the chunks of a sharded run call concurrently.
func (m *ArrayMemo) column(fi int, alloc bool) ([]float64, *bitmap.Bits) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if fi >= len(m.vals) || m.vals[fi] == nil {
		if !alloc {
			return nil, nil
		}
		m.grow(fi)
	}
	return m.vals[fi], m.present[fi]
}
