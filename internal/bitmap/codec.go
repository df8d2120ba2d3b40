package bitmap

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
)

// A bitset is stored as one of two containers, whichever is smaller
// (the sparse one on a tie). Its length n is not stored: the reader
// knows it (a session snapshot sizes every bitmap by its pair count).
//
//	sparse: 0x00, uvarint k, then k uvarint gaps: the first set bit,
//	        then each next set bit minus the previous one minus one.
//	runs:   0x01, then runs covering exactly ⌈n/64⌉ words, each a
//	        uvarint count<<2 | kind: kind 0 is count zero words, kind 1
//	        count full words (a full last word holds only the n%64 bits
//	        below n), kind 2 count literal words, which follow as
//	        8-byte little-endian values.
//
// The encoding is canonical and Decode accepts nothing else: varints
// are minimal, runs are maximal (two adjacent runs differ in kind, and
// no literal word is empty or full), and the container is the one
// AppendEncoded picks. Decoding and re-encoding therefore reproduce
// the input bytes exactly.
const (
	containerSparse = 0
	containerRuns   = 1

	runZero    = 0
	runFull    = 1
	runLiteral = 2
)

// AppendEncoded appends b's canonical container encoding to dst.
func (b *Bits) AppendEncoded(dst []byte) []byte {
	if b.sparseFits(b.runsSize()) {
		dst = append(dst, containerSparse)
		dst = binary.AppendUvarint(dst, uint64(b.Count()))
		prev := -1
		for wi, w := range b.words {
			for ; w != 0; w &= w - 1 {
				i := wi<<6 + bits.TrailingZeros64(w)
				dst = binary.AppendUvarint(dst, uint64(i-prev-1))
				prev = i
			}
		}
		return dst
	}
	dst = append(dst, containerRuns)
	b.runs(func(kind, start, count int) {
		dst = binary.AppendUvarint(dst, uint64(count)<<2|uint64(kind))
		if kind == runLiteral {
			for _, w := range b.words[start : start+count] {
				dst = binary.LittleEndian.AppendUint64(dst, w)
			}
		}
	})
	return dst
}

// sparseFits reports whether b's sparse container takes at most limit
// bytes: sparseSize() <= limit. Each gap takes at least a byte, so
// 1 + uvarintLen(k) + k bounds the sparse size from below for k set
// bits; the bits are walked only when that bound does not already
// exceed limit.
func (b *Bits) sparseFits(limit int) bool {
	k := b.Count()
	if 1+uvarintLen(uint64(k))+k > limit {
		return false
	}
	return b.sparseSize() <= limit
}

// sparseSize is the byte length of b's sparse container.
func (b *Bits) sparseSize() int {
	size := 1 + uvarintLen(uint64(b.Count()))
	prev := -1
	for wi, w := range b.words {
		for ; w != 0; w &= w - 1 {
			i := wi<<6 + bits.TrailingZeros64(w)
			size += uvarintLen(uint64(i - prev - 1))
			prev = i
		}
	}
	return size
}

// runsSize is the byte length of b's runs container.
func (b *Bits) runsSize() int {
	size := 1
	b.runs(func(kind, _, count int) {
		size += uvarintLen(uint64(count)<<2 | uint64(kind))
		if kind == runLiteral {
			size += 8 * count
		}
	})
	return size
}

// runs calls fn for each maximal run of words of one kind, in order.
func (b *Bits) runs(fn func(kind, start, count int)) {
	start, kind := 0, -1
	for wi, w := range b.words {
		k := runLiteral
		switch w {
		case 0:
			k = runZero
		case b.fullWord(wi):
			k = runFull
		}
		if k != kind {
			if kind >= 0 {
				fn(kind, start, wi-start)
			}
			start, kind = wi, k
		}
	}
	if kind >= 0 {
		fn(kind, start, len(b.words)-start)
	}
}

// fullWord is word wi with every bit below n set.
func (b *Bits) fullWord(wi int) uint64 {
	if wi == len(b.words)-1 && b.n%64 != 0 {
		return 1<<(uint(b.n)%64) - 1
	}
	return ^uint64(0)
}

// Decode reads the container encoding of an n-bit bitset from the head
// of data and returns the bitset and the bytes after it. It refuses
// every input AppendEncoded would not have written, so a decoded
// bitset never has a bit at or past n set. It allocates ⌈n/64⌉ words
// whatever data holds — an empty bitset of any length encodes in two
// bytes — so a caller decoding untrusted input must bound n itself.
func Decode(data []byte, n int) (*Bits, []byte, error) {
	if len(data) == 0 {
		return nil, nil, errors.New("bitmap: truncated container")
	}
	b := New(n)
	var err error
	var size int
	switch data[0] {
	case containerSparse:
		size, err = b.decodeSparse(data)
		if err == nil && size > b.runsSize() {
			err = errors.New("bitmap: sparse container where runs are smaller")
		}
	case containerRuns:
		size, err = b.decodeRuns(data)
		if err == nil && b.sparseFits(size) {
			err = errors.New("bitmap: runs container where sparse is no larger")
		}
	default:
		err = fmt.Errorf("bitmap: unknown container %d", data[0])
	}
	if err != nil {
		return nil, nil, err
	}
	return b, data[size:], nil
}

// decodeSparse fills b from a sparse container and returns its length.
func (b *Bits) decodeSparse(data []byte) (int, error) {
	off := 1
	k, err := uvarint(data, &off)
	if err != nil {
		return 0, err
	}
	// Each gap takes at least a byte.
	if k > uint64(len(data)-off) || k > uint64(b.n) {
		return 0, fmt.Errorf("bitmap: %d set bits claimed by %d bytes of a %d-bit set", k, len(data)-off, b.n)
	}
	next := uint64(0) // the lowest position the next bit may take
	for ; k > 0; k-- {
		gap, err := uvarint(data, &off)
		if err != nil {
			return 0, err
		}
		if gap >= uint64(b.n)-next {
			return 0, fmt.Errorf("bitmap: set bit past length %d", b.n)
		}
		i := next + gap
		b.words[i>>6] |= 1 << (i & 63)
		next = i + 1
	}
	return off, nil
}

// decodeRuns fills b from a runs container and returns its length.
func (b *Bits) decodeRuns(data []byte) (int, error) {
	off := 1
	prev := -1
	for wi := 0; wi < len(b.words); {
		h, err := uvarint(data, &off)
		if err != nil {
			return 0, err
		}
		kind, count := int(h&3), h>>2
		if kind > runLiteral || count == 0 || kind == prev {
			return 0, fmt.Errorf("bitmap: run header %d is not canonical", h)
		}
		if count > uint64(len(b.words)-wi) {
			return 0, fmt.Errorf("bitmap: run of %d words past the %d words of %d bits", count, len(b.words), b.n)
		}
		end := wi + int(count)
		switch kind {
		case runFull:
			for ; wi < end; wi++ {
				b.words[wi] = b.fullWord(wi)
			}
		case runLiteral:
			if uint64(len(data)-off) < 8*count {
				return 0, errors.New("bitmap: truncated literal words")
			}
			for ; wi < end; wi++ {
				w := binary.LittleEndian.Uint64(data[off:])
				off += 8
				full := b.fullWord(wi)
				if w == 0 || w == full || w&^full != 0 {
					return 0, fmt.Errorf("bitmap: literal word %d is empty, full or past length %d", wi, b.n)
				}
				b.words[wi] = w
			}
		}
		wi, prev = end, kind
	}
	return off, nil
}

// uvarint reads a minimal uvarint at data[*off:] and advances *off.
func uvarint(data []byte, off *int) (uint64, error) {
	v, k := binary.Uvarint(data[*off:])
	if k <= 0 {
		return 0, errors.New("bitmap: truncated or overflowing varint")
	}
	if k > 1 && data[*off+k-1] == 0 {
		return 0, errors.New("bitmap: overlong varint")
	}
	*off += k
	return v, nil
}

// uvarintLen is the length of v's minimal uvarint.
func uvarintLen(v uint64) int {
	return (bits.Len64(v|1) + 6) / 7
}
