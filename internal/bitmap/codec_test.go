package bitmap

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"runtime"
	"testing"
)

// bitsOf returns an n-bit set with the given bits set.
func bitsOf(n int, set ...int) *Bits {
	b := New(n)
	for _, i := range set {
		b.Set(i)
	}
	return b
}

// literal is a runs-container literal word as it appears on the wire.
func literal(w uint64) []byte { return binary.LittleEndian.AppendUint64(nil, w) }

func cat(parts ...[]byte) []byte { return bytes.Join(parts, nil) }

// TestCodecContainers pins the exact bytes of each container for the
// edge shapes and at each side of the container choice.
func TestCodecContainers(t *testing.T) {
	ones := func(n int) *Bits { b := New(n); b.SetAll(); return b }
	alternating := New(256)
	for i := 1; i < 256; i += 2 {
		alternating.Set(i)
	}
	litZero := New(256)
	litZero.words[0] = 0x1111111111111119
	litZero.words[2] = 0x1111111111111115
	for _, tc := range []struct {
		name string
		b    *Bits
		want []byte
	}{
		{"empty", New(0), []byte{containerRuns}},
		{"zero value", &Bits{}, []byte{containerRuns}},
		{"no bits set", New(1000), []byte{containerSparse, 0}},
		{"one bit", bitsOf(100, 5), []byte{containerSparse, 1, 5}},
		{"all ones", ones(128), []byte{containerRuns, 2<<2 | runFull}},
		{"all ones, n not a multiple of 64", ones(130), []byte{containerRuns, 3<<2 | runFull}},
		{"alternating bits: one literal run", alternating,
			cat([]byte{containerRuns, 4<<2 | runLiteral}, literal(0xaaaaaaaaaaaaaaaa), literal(0xaaaaaaaaaaaaaaaa),
				literal(0xaaaaaaaaaaaaaaaa), literal(0xaaaaaaaaaaaaaaaa))},
		{"literal and zero words alternating", litZero, cat([]byte{containerRuns, 1<<2 | runLiteral}, literal(0x1111111111111119),
			[]byte{1<<2 | runZero, 1<<2 | runLiteral}, literal(0x1111111111111115), []byte{1<<2 | runZero})},
		// 3 bytes either way: the tie goes to sparse.
		{"tie: sparse", bitsOf(65, 64), []byte{containerSparse, 1, 64}},
		// Runs is one byte shorter than sparse {0, 1, 128, 1}.
		{"runs by one byte", bitsOf(129, 128), []byte{containerRuns, 2<<2 | runZero, 1<<2 | runFull}},
		// One more set bit tips the same shape back to sparse.
		{"sparse by one byte", bitsOf(129, 0, 128), []byte{containerSparse, 2, 0, 127}},
	} {
		got := tc.b.AppendEncoded(nil)
		if !bytes.Equal(got, tc.want) {
			t.Errorf("%s: encoded %x, want %x", tc.name, got, tc.want)
			continue
		}
		if s, r := tc.b.sparseSize(), tc.b.runsSize(); len(got) != min(s, r) {
			t.Errorf("%s: %d bytes, containers are sparse %d and runs %d", tc.name, len(got), s, r)
		}
		dec, rest, err := Decode(append(got, 0xee), tc.b.Len())
		if err != nil || !dec.Equal(tc.b) || !bytes.Equal(rest, []byte{0xee}) {
			t.Errorf("%s: Decode = %v, rest %x, err %v", tc.name, dec, rest, err)
		}
	}
}

// TestEncodeContainerChoice checks that every encoding is the smaller
// container, sparse on a tie, for sets built by New, Grow and Gather
// and over a sweep of densities.
func TestEncodeContainerChoice(t *testing.T) {
	grown := New(3)
	grown.Set(2)
	grown.Grow(64)
	grown.Grow(65)
	grown.Grow(200)
	var zero Bits
	sets := []*Bits{New(0), New(1), New(64), New(65), grown, New(300).Gather([]int32{1, 5, 299}), &zero}
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{1, 63, 64, 65, 500, 4096} {
		for _, density := range []float64{0.001, 0.01, 0.05, 0.2, 0.5, 0.9, 0.99, 1} {
			b := New(n)
			for i := 0; i < n; i++ {
				if rng.Float64() < density {
					b.Set(i)
				}
			}
			sets = append(sets, b)
		}
	}
	ties := 0
	for _, b := range sets {
		enc := b.AppendEncoded(nil)
		s, r := b.sparseSize(), b.runsSize()
		want := byte(containerSparse)
		if r < s {
			want = containerRuns
		}
		if s == r {
			ties++
		}
		if enc[0] != want || len(enc) != min(s, r) {
			t.Errorf("%d bits, %d set: container %d of %d bytes; sparse %d, runs %d", b.Len(), b.Count(), enc[0], len(enc), s, r)
		}
	}
	if ties == 0 {
		t.Log("no tie in the sweep; TestCodecContainers pins one")
	}
}

// TestSparseFitsMatchesExact holds the bounded container decision to
// the exact one: sparseFits(limit) must equal sparseSize() <= limit for
// every limit next to the popcount bound, the runs size and the sparse
// size, on random sets and on sets grown bit by bit through the
// popcount at which the bound meets the runs size.
func TestSparseFitsMatchesExact(t *testing.T) {
	check := func(b *Bits) {
		t.Helper()
		k, s := b.Count(), b.sparseSize()
		for _, at := range []int{1 + uvarintLen(uint64(k)) + k, b.runsSize(), s} {
			for limit := at - 1; limit <= at+1; limit++ {
				if got, want := b.sparseFits(limit), s <= limit; got != want {
					t.Fatalf("%d bits, %d set, limit %d: sparseFits %v, exact %v (sparse %d, runs %d)",
						b.Len(), k, limit, got, want, s, b.runsSize())
				}
			}
		}
	}
	rng := rand.New(rand.NewSource(5))
	for iter := 0; iter < 400; iter++ {
		n := rng.Intn(3000)
		b := New(n)
		density := []float64{0.001, 0.01, 0.1, 0.5, 0.9, 0.999}[iter%6]
		for i := 0; i < n; i++ {
			if rng.Float64() < density {
				b.Set(i)
			}
		}
		check(b)
	}
	boundary := 0
	for _, n := range []int{64, 700, 5000} {
		b := New(n)
		for step := 0; step < 2*n; step++ {
			b.Set(rng.Intn(n))
			k := b.Count()
			if d := 1 + uvarintLen(uint64(k)) + k - b.runsSize(); d >= -2 && d <= 2 {
				boundary++
				check(b)
			}
		}
	}
	if boundary == 0 {
		t.Fatal("no grown set reached the popcount bound at the runs size")
	}
}

// TestCodecRoundTrip decodes random sets of many shapes back to equal
// sets, re-encodes them byte-identically, and returns the bytes after
// the container untouched.
func TestCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 500; iter++ {
		n := rng.Intn(1000)
		b := New(n)
		switch iter % 4 {
		case 0: // scattered bits
			for k := rng.Intn(n/8 + 1); k > 0; k-- {
				b.Set(rng.Intn(n))
			}
		case 1: // dense with holes
			b.SetAll()
			for k := rng.Intn(n/8 + 1); k > 0; k-- {
				b.Clear(rng.Intn(n))
			}
		case 2: // long runs
			for i := 0; i < n; {
				l := 1 + rng.Intn(200)
				if rng.Intn(2) == 0 {
					for j := i; j < min(n, i+l); j++ {
						b.Set(j)
					}
				}
				i += l
			}
		default: // random words
			for i := 0; i < n; i++ {
				if rng.Intn(2) == 0 {
					b.Set(i)
				}
			}
		}
		enc := b.AppendEncoded([]byte("head"))
		got, rest, err := Decode(append(enc[4:], "tail"...), n)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if !got.Equal(b) || string(rest) != "tail" {
			t.Fatalf("n=%d: round trip lost bits or bytes (rest %q)", n, rest)
		}
		if again := got.AppendEncoded(nil); !bytes.Equal(again, enc[4:]) {
			t.Fatalf("n=%d: re-encoding gave %x, want %x", n, again, enc[4:])
		}
	}
}

func TestDecodeRejectsMalformed(t *testing.T) {
	uv := func(v uint64) []byte { return binary.AppendUvarint(nil, v) }
	for _, tc := range []struct {
		name string
		n    int
		data []byte
	}{
		{"no bytes", 10, nil},
		{"unknown container", 10, []byte{2}},
		{"sparse: truncated count", 10, []byte{containerSparse}},
		{"sparse: truncated gap", 10, []byte{containerSparse, 2, 1}},
		{"sparse: more bits than bytes", 1000, []byte{containerSparse, 3, 0, 0}},
		{"sparse: more bits than n", 2, []byte{containerSparse, 3, 0, 0, 0}},
		{"sparse: bit at n", 10, []byte{containerSparse, 1, 10}},
		{"sparse: gap past n", 10, []byte{containerSparse, 2, 5, 4}},
		{"sparse: huge gap", 10, cat([]byte{containerSparse, 1}, uv(1<<63))},
		{"sparse: overlong varint", 10, []byte{containerSparse, 1, 0x83, 0x00}},
		{"sparse where runs are smaller", 128, cat([]byte{containerSparse}, uv(64), uv(64), make([]byte, 63))},
		{"runs: no runs", 64, []byte{containerRuns}},
		{"runs: zero-length run", 64, []byte{containerRuns, 0<<2 | runZero, 1<<2 | runZero}},
		{"runs: unknown kind", 64, []byte{containerRuns, 1<<2 | 3}},
		{"runs: more words than n", 64, []byte{containerRuns, 2<<2 | runFull}},
		{"runs: huge count", 64, cat([]byte{containerRuns}, uv(1<<60|runZero))},
		{"runs: adjacent runs of one kind", 128, []byte{containerRuns, 1<<2 | runFull, 1<<2 | runFull}},
		{"runs: truncated literal", 128, []byte{containerRuns, 1<<2 | runLiteral, 1, 2, 3}},
		{"runs: empty literal word", 128, cat([]byte{containerRuns, 2<<2 | runLiteral}, literal(5), literal(0))},
		{"runs: full literal word", 128, cat([]byte{containerRuns, 2<<2 | runLiteral}, literal(5), literal(^uint64(0)))},
		{"runs: full last literal word", 66, cat([]byte{containerRuns, 2<<2 | runLiteral}, literal(5), literal(3))},
		{"runs: literal bit past n", 66, cat([]byte{containerRuns, 2<<2 | runLiteral}, literal(5), literal(5))},
		{"runs where sparse is no larger", 65, []byte{containerRuns, 1<<2 | runZero, 1<<2 | runFull}},
		{"runs for an empty set", 1000, cat([]byte{containerRuns}, uv(16<<2|runZero))},
	} {
		if b, _, err := Decode(tc.data, tc.n); err == nil {
			t.Errorf("%s: decoded %d bits, %d set, without error", tc.name, b.Len(), b.Count())
		}
	}
}

// TestDecodeClaimBoundsAllocation: a few bytes claiming 2^40 set bits
// or a 2^40-word run are refused after allocating only the n bits the
// caller asked for, not the claim.
func TestDecodeClaimBoundsAllocation(t *testing.T) {
	for _, data := range [][]byte{
		binary.AppendUvarint([]byte{containerSparse}, 1<<40),
		binary.AppendUvarint([]byte{containerRuns}, 1<<42|runFull),
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, _, err := Decode(data, 64)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("%x: a 2^40 claim in %d bytes decoded without error", data, len(data))
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew >= 64<<10 {
			t.Fatalf("%x: decoding allocated %d bytes, want < 64 KiB", data, grew)
		}
	}
}

// FuzzBitsDecode: an input either fails to decode or decodes to an
// n-bit set with no bit at or past n whose re-encoding is exactly the
// bytes Decode consumed.
func FuzzBitsDecode(f *testing.F) {
	b := bitsOf(130, 0, 64, 129)
	f.Add(uint16(b.Len()), b.AppendEncoded(nil))
	f.Fuzz(func(t *testing.T, n uint16, data []byte) {
		got, rest, err := Decode(data, int(n))
		if err != nil {
			return
		}
		if got.Len() != int(n) || len(got.words) != (int(n)+63)/64 {
			t.Fatalf("decoded %d bits in %d words, want %d bits", got.Len(), len(got.words), n)
		}
		if last := len(got.words) - 1; last >= 0 && got.words[last]&^got.fullWord(last) != 0 {
			t.Fatalf("bit set past length %d", n)
		}
		used := data[:len(data)-len(rest)]
		if again := got.AppendEncoded(nil); !bytes.Equal(again, used) {
			t.Fatalf("re-encoding %x gave %x", used, again)
		}
	})
}
