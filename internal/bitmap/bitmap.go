// Package bitmap provides a compact fixed-size bitset used to materialize
// per-rule match sets and per-predicate false sets for incremental matching
// (paper Section 6.1).
package bitmap

import (
	"fmt"
	"math/bits"
)

// Bits is a fixed-length bitset. The zero value is an empty bitset of
// length 0; use New to create one with capacity.
type Bits struct {
	words []uint64
	n     int
}

// New returns a bitset holding n bits, all clear.
func New(n int) *Bits {
	if n < 0 {
		panic(fmt.Sprintf("bitmap: negative size %d", n))
	}
	return &Bits{words: make([]uint64, (n+63)/64), n: n}
}

// Len returns the number of bits the set holds.
func (b *Bits) Len() int { return b.n }

// Grow extends the set to hold n bits, preserving existing bits. The
// new bits are clear, and the unused high bits of the last word stay
// clear (the invariant OrRange relies on). Growing to a smaller or
// equal n is a no-op.
func (b *Bits) Grow(n int) {
	if n <= b.n {
		return
	}
	need := (n + 63) / 64
	if need > len(b.words) {
		words := make([]uint64, need)
		copy(words, b.words)
		b.words = words
	}
	b.n = n
}

// Set sets bit i.
func (b *Bits) Set(i int) {
	b.check(i)
	b.words[i>>6] |= 1 << (uint(i) & 63)
}

// Clear clears bit i.
func (b *Bits) Clear(i int) {
	b.check(i)
	b.words[i>>6] &^= 1 << (uint(i) & 63)
}

// Get reports whether bit i is set.
func (b *Bits) Get(i int) bool {
	b.check(i)
	return b.words[i>>6]&(1<<(uint(i)&63)) != 0
}

// Count returns the number of set bits.
func (b *Bits) Count() int {
	c := 0
	for _, w := range b.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Reset clears all bits.
func (b *Bits) Reset() {
	for i := range b.words {
		b.words[i] = 0
	}
}

// Clone returns a deep copy.
func (b *Bits) Clone() *Bits {
	c := &Bits{words: make([]uint64, len(b.words)), n: b.n}
	copy(c.words, b.words)
	return c
}

// Or sets b = b | other. The two sets must have equal length.
func (b *Bits) Or(other *Bits) {
	b.checkLen(other)
	for i, w := range other.words {
		b.words[i] |= w
	}
}

// SetAll sets every bit. The unused high bits of the last word stay
// clear, preserving the invariant OrRange and Count rely on.
func (b *Bits) SetAll() {
	if b.n == 0 {
		return
	}
	for i := range b.words {
		b.words[i] = ^uint64(0)
	}
	b.words[len(b.words)-1] = ^uint64(0) >> (uint(len(b.words)*64-b.n) & 63)
}

// CopyFrom overwrites b with the contents of src. The two sets must
// have equal length.
func (b *Bits) CopyFrom(src *Bits) {
	b.checkLen(src)
	copy(b.words, src.words)
}

// AndNot sets b = b &^ other. The two sets must have equal length.
func (b *Bits) AndNot(other *Bits) {
	b.checkLen(other)
	for i, w := range other.words {
		b.words[i] &^= w
	}
}

// OrRange ORs all bits of src into b starting at bit offset at, so bit
// i of src lands on bit at+i of b. The merge is word-level: an aligned
// offset (at % 64 == 0) ORs whole words; an unaligned one shift-merges
// each source word into two destination words. The batch engine uses
// this to place a block-local bitset into the full pair range.
func (b *Bits) OrRange(src *Bits, at int) {
	b.checkRange(src, at)
	if src.n == 0 {
		return
	}
	wi := at >> 6
	shift := uint(at) & 63
	if shift == 0 {
		for i, w := range src.words {
			b.words[wi+i] |= w
		}
		return
	}
	var carry uint64
	for i, w := range src.words {
		b.words[wi+i] |= w<<shift | carry
		carry = w >> (64 - shift)
	}
	// The unused high bits of src's last word are zero by invariant, so
	// any carry holds valid bits below at+src.n and the word exists.
	if carry != 0 {
		b.words[wi+len(src.words)] |= carry
	}
}

// Gather returns a new bitset of len(keep) bits whose bit i is bit
// keep[i] of b; b is not modified. Compacting a pair dimension passes
// the surviving indices in ascending order, but any order works. Each
// output word is assembled in a register and stored once.
func (b *Bits) Gather(keep []int32) *Bits {
	out := New(len(keep))
	for wi := range out.words {
		chunk := keep[wi<<6:]
		if len(chunk) > 64 {
			chunk = chunk[:64]
		}
		var w uint64
		for j, k := range chunk {
			b.check(int(k))
			w |= (b.words[k>>6] >> (uint(k) & 63) & 1) << uint(j)
		}
		out.words[wi] = w
	}
	return out
}

// Equal reports whether two bitsets have identical length and contents.
func (b *Bits) Equal(other *Bits) bool {
	if b.n != other.n {
		return false
	}
	for i, w := range b.words {
		if other.words[i] != w {
			return false
		}
	}
	return true
}

// ForEach calls fn for every set bit in ascending order. If fn returns
// false, iteration stops.
func (b *Bits) ForEach(fn func(i int) bool) {
	for wi, w := range b.words {
		for w != 0 {
			tz := bits.TrailingZeros64(w)
			if !fn(wi<<6 + tz) {
				return
			}
			w &= w - 1
		}
	}
}

// NextSet returns the position of the first set bit at or after from,
// or -1 when no such bit exists. It allocates nothing, making
//
//	for i := b.NextSet(0); i >= 0; i = b.NextSet(i + 1) { ... }
//
// the iteration of choice on hot paths (Indices allocates the full
// index slice up front). A from below 0 starts at 0; a from at or past
// Len() returns -1.
func (b *Bits) NextSet(from int) int {
	if from < 0 {
		from = 0
	}
	if from >= b.n {
		return -1
	}
	wi := from >> 6
	// Mask off the bits below from within the first word.
	w := b.words[wi] >> (uint(from) & 63)
	if w != 0 {
		return from + bits.TrailingZeros64(w)
	}
	for wi++; wi < len(b.words); wi++ {
		if b.words[wi] != 0 {
			return wi<<6 + bits.TrailingZeros64(b.words[wi])
		}
	}
	return -1
}

// Filter clears from b every set bit i for which keep(i) reports false,
// recording the cleared bits in removed when it is non-nil (removed
// must have b's length; its existing bits are preserved and ORed with
// the cleared ones). The scan is word-level with one write-back per
// dirty word — the tight kernel the batch matching engine uses to
// AndNot a predicate's failures out of the active pair set.
func (b *Bits) Filter(keep func(i int) bool, removed *Bits) {
	if removed != nil {
		b.checkLen(removed)
	}
	for wi, w := range b.words {
		if w == 0 {
			continue
		}
		var rm uint64
		for t := w; t != 0; t &= t - 1 {
			tz := bits.TrailingZeros64(t)
			if !keep(wi<<6 + tz) {
				rm |= 1 << uint(tz)
			}
		}
		if rm != 0 {
			b.words[wi] = w &^ rm
			if removed != nil {
				removed.words[wi] |= rm
			}
		}
	}
}

// Indices returns the positions of all set bits in ascending order.
func (b *Bits) Indices() []int {
	out := make([]int, 0, b.Count())
	b.ForEach(func(i int) bool {
		out = append(out, i)
		return true
	})
	return out
}

// Bytes returns the approximate in-memory size of the bitset in bytes.
func (b *Bits) Bytes() int64 { return int64(len(b.words)) * 8 }

func (b *Bits) check(i int) {
	if i < 0 || i >= b.n {
		panic(fmt.Sprintf("bitmap: index %d out of range [0,%d)", i, b.n))
	}
}

func (b *Bits) checkLen(other *Bits) {
	if b.n != other.n {
		panic(fmt.Sprintf("bitmap: length mismatch %d vs %d", b.n, other.n))
	}
}

func (b *Bits) checkRange(src *Bits, at int) {
	if at < 0 || at+src.n > b.n {
		panic(fmt.Sprintf("bitmap: range [%d,%d) out of bounds [0,%d)", at, at+src.n, b.n))
	}
}
