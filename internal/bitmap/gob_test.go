package bitmap

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"
)

// TestGobEncodeWritesExactWords pins the layout GobDecode insists on:
// an 8-byte bit count, then exactly ⌈n/64⌉ words, for bitsets built by
// New, grown by Grow and gathered by Gather.
func TestGobEncodeWritesExactWords(t *testing.T) {
	grown := New(3)
	grown.Grow(64)
	grown.Grow(65)
	grown.Grow(200)
	var zero Bits
	for _, b := range []*Bits{New(0), New(1), New(64), New(65), grown, New(300).Gather([]int32{1, 5, 299}), &zero} {
		data, err := b.GobEncode()
		if err != nil {
			t.Fatal(err)
		}
		if want := 8 + 8*((b.Len()+63)/64); len(data) != want {
			t.Errorf("%d bits encode to %d bytes, want %d", b.Len(), len(data), want)
		}
	}
}

// TestGobDecodeClaimBoundsAllocation: a 16-byte blob claiming 2^30
// bits is refused before the decoder allocates for the claim.
func TestGobDecodeClaimBoundsAllocation(t *testing.T) {
	blob := make([]byte, 16)
	binary.LittleEndian.PutUint64(blob, 1<<30)
	var got Bits
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := got.GobDecode(blob)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a 2^30-bit claim carried by one word decoded without error")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 64<<10 {
		t.Fatalf("decoding a 16-byte blob allocated %d bytes, want < 64 KiB", grew)
	}
}

func TestGobDecodeRejectsMalformed(t *testing.T) {
	enc := func(n int64, words ...uint64) []byte {
		buf := binary.LittleEndian.AppendUint64(nil, uint64(n))
		for _, w := range words {
			buf = binary.LittleEndian.AppendUint64(buf, w)
		}
		return buf
	}
	for name, blob := range map[string][]byte{
		"short header":     {1, 2, 3},
		"negative length":  enc(-1),
		"missing word":     enc(65, 1),
		"extra word":       enc(64, 1, 0),
		"trailing byte":    append(enc(1, 1), 0),
		"bit past length":  enc(3, 1<<3),
		"bits of no words": enc(0, 1),
	} {
		b := New(5)
		b.Set(2)
		if err := b.GobDecode(blob); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
		if b.Len() != 5 || !b.Get(2) || b.Count() != 1 {
			t.Errorf("%s: a failed decode changed the receiver", name)
		}
	}
	var b Bits
	if err := b.GobDecode(enc(3, 0b101)); err != nil || b.Len() != 3 || b.Count() != 2 {
		t.Fatalf("valid 3-bit blob: err %v, len %d, count %d", err, b.Len(), b.Count())
	}
}

// FuzzBitsGobDecode: every input either fails to decode or decodes to
// a bitset that re-encodes to exactly the input, counts no more bits
// than it holds, and allocated words in proportion to the input.
func FuzzBitsGobDecode(f *testing.F) {
	b := New(130)
	b.Set(0)
	b.Set(64)
	b.Set(129)
	data, err := b.GobEncode()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	f.Fuzz(func(t *testing.T, data []byte) {
		var got Bits
		if err := got.GobDecode(data); err != nil {
			return
		}
		if 8*len(got.words) > len(data) {
			t.Fatalf("%d input bytes decoded into %d words", len(data), len(got.words))
		}
		if got.Count() > got.Len() {
			t.Fatalf("count %d exceeds length %d", got.Count(), got.Len())
		}
		again, err := got.GobEncode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("re-encoding %x gave %x", data, again)
		}
	})
}
