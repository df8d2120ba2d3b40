package bitmap

import (
	"encoding/binary"
	"fmt"
)

// GobEncode implements gob.GobEncoder so bitsets can be persisted
// inside session snapshots: the bit count as a little-endian int64,
// then exactly ⌈n/64⌉ little-endian words.
func (b *Bits) GobEncode() ([]byte, error) {
	buf := make([]byte, 0, 8+8*len(b.words))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(b.n))
	for _, w := range b.words {
		buf = binary.LittleEndian.AppendUint64(buf, w)
	}
	return buf, nil
}

// GobDecode implements gob.GobDecoder. The blob must hold exactly the
// ⌈n/64⌉ words GobEncode writes for its bit count n, and no bit past n
// may be set (Count and OrRange rely on those bits being clear). The
// word count is checked before anything is allocated, so a blob
// claiming more bits than it carries costs no allocation beyond its
// own size. On error b is left unchanged.
func (b *Bits) GobDecode(data []byte) error {
	if len(data) < 8 {
		return fmt.Errorf("bitmap: corrupt gob: %d bytes, want at least 8", len(data))
	}
	n := int64(binary.LittleEndian.Uint64(data))
	if n < 0 {
		return fmt.Errorf("bitmap: corrupt gob length %d", n)
	}
	data = data[8:]
	if nw := (uint64(n) + 63) / 64; uint64(len(data)) != 8*nw {
		return fmt.Errorf("bitmap: corrupt gob: %d bits need %d words, blob holds %d bytes", n, nw, len(data))
	}
	words := make([]uint64, len(data)/8)
	for i := range words {
		words[i] = binary.LittleEndian.Uint64(data[8*i:])
	}
	if tail := uint(n % 64); tail != 0 && words[len(words)-1]>>tail != 0 {
		return fmt.Errorf("bitmap: corrupt gob: bits set past length %d", n)
	}
	b.n = int(n)
	b.words = words
	return nil
}
