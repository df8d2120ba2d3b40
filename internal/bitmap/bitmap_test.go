package bitmap

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSetGetClear(t *testing.T) {
	b := New(130)
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		if b.Get(i) {
			t.Errorf("bit %d set in fresh bitmap", i)
		}
		b.Set(i)
		if !b.Get(i) {
			t.Errorf("bit %d not set after Set", i)
		}
		b.Clear(i)
		if b.Get(i) {
			t.Errorf("bit %d still set after Clear", i)
		}
	}
}

func TestCount(t *testing.T) {
	b := New(200)
	if b.Count() != 0 {
		t.Fatalf("fresh count = %d", b.Count())
	}
	for i := 0; i < 200; i += 3 {
		b.Set(i)
	}
	want := 67 // ceil(200/3)
	if got := b.Count(); got != want {
		t.Errorf("count = %d, want %d", got, want)
	}
	b.Set(0) // idempotent
	if got := b.Count(); got != want {
		t.Errorf("count after re-set = %d, want %d", got, want)
	}
}

func TestLenZero(t *testing.T) {
	b := New(0)
	if b.Len() != 0 || b.Count() != 0 {
		t.Errorf("zero-length bitmap misbehaves: len=%d count=%d", b.Len(), b.Count())
	}
}

func TestOutOfRangePanics(t *testing.T) {
	b := New(10)
	for _, i := range []int{-1, 10, 100} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Get(%d) did not panic", i)
				}
			}()
			b.Get(i)
		}()
	}
}

func TestNegativeSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New(-1) did not panic")
		}
	}()
	New(-1)
}

func TestForEachAndIndices(t *testing.T) {
	b := New(300)
	want := []int{0, 5, 63, 64, 128, 255, 299}
	for _, i := range want {
		b.Set(i)
	}
	got := b.Indices()
	if len(got) != len(want) {
		t.Fatalf("indices = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("indices = %v, want %v", got, want)
		}
	}
	// Early stop.
	n := 0
	b.ForEach(func(int) bool {
		n++
		return n < 3
	})
	if n != 3 {
		t.Errorf("ForEach early stop visited %d, want 3", n)
	}
}

func TestOrAndNot(t *testing.T) {
	a := New(100)
	b := New(100)
	a.Set(1)
	a.Set(50)
	b.Set(50)
	b.Set(99)
	a.Or(b)
	for _, i := range []int{1, 50, 99} {
		if !a.Get(i) {
			t.Errorf("after Or, bit %d clear", i)
		}
	}
	a.AndNot(b)
	if !a.Get(1) || a.Get(50) || a.Get(99) {
		t.Errorf("AndNot wrong: %v", a.Indices())
	}
}

func TestCloneEqualReset(t *testing.T) {
	a := New(77)
	a.Set(3)
	a.Set(76)
	c := a.Clone()
	if !a.Equal(c) {
		t.Fatal("clone not equal")
	}
	c.Set(10)
	if a.Equal(c) {
		t.Fatal("clone aliases original")
	}
	if a.Get(10) {
		t.Fatal("mutating clone changed original")
	}
	a.Reset()
	if a.Count() != 0 {
		t.Errorf("count after reset = %d", a.Count())
	}
	if a.Equal(New(78)) {
		t.Error("different lengths reported equal")
	}
}

func TestMismatchedLengthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Or with mismatched lengths did not panic")
		}
	}()
	New(10).Or(New(11))
}

// Property: a bitmap agrees with a map[int]bool reference under a random
// operation sequence.
func TestQuickAgainstReference(t *testing.T) {
	f := func(seed int64, opsRaw []byte) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(500)
		b := New(n)
		ref := make(map[int]bool)
		for _, op := range opsRaw {
			i := rng.Intn(n)
			switch op % 3 {
			case 0:
				b.Set(i)
				ref[i] = true
			case 1:
				b.Clear(i)
				delete(ref, i)
			case 2:
				if b.Get(i) != ref[i] {
					return false
				}
			}
		}
		if b.Count() != len(ref) {
			return false
		}
		for _, i := range b.Indices() {
			if !ref[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestBytes(t *testing.T) {
	if got := New(64).Bytes(); got != 8 {
		t.Errorf("Bytes(64 bits) = %d, want 8", got)
	}
	if got := New(65).Bytes(); got != 16 {
		t.Errorf("Bytes(65 bits) = %d, want 16", got)
	}
}

// orRangeNaive is the bit-at-a-time reference for OrRange.
func orRangeNaive(dst, src *Bits, at int) {
	for i := 0; i < src.Len(); i++ {
		if src.Get(i) {
			dst.Set(at + i)
		}
	}
}

func TestOrRangeMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	// Sizes and offsets straddle word boundaries: aligned, off-by-one,
	// sub-word, multi-word with ragged tails.
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(300)
		srcLen := rng.Intn(n + 1)
		at := 0
		if n-srcLen > 0 {
			at = rng.Intn(n - srcLen + 1)
		}
		src := New(srcLen)
		for i := 0; i < srcLen; i++ {
			if rng.Intn(2) == 0 {
				src.Set(i)
			}
		}
		got := New(n)
		want := New(n)
		// Pre-populate the destination so the merge must preserve bits.
		for i := 0; i < n; i += 5 {
			got.Set(i)
			want.Set(i)
		}
		got.OrRange(src, at)
		orRangeNaive(want, src, at)
		if !got.Equal(want) {
			t.Fatalf("trial %d: OrRange(len=%d, at=%d) diverges from naive", trial, srcLen, at)
		}
	}
}

func TestOrRangeBoundaries(t *testing.T) {
	for _, tc := range []struct{ n, srcLen, at int }{
		{128, 64, 64}, // aligned whole words
		{128, 64, 1},  // unaligned, carry into next word
		{128, 63, 65}, // unaligned, ends exactly at n
		{130, 70, 3},  // multi-word src, ragged tail
		{64, 64, 0},   // exact single word
		{65, 1, 64},   // last bit only
		{200, 0, 50},  // empty source is a no-op
	} {
		src := New(tc.srcLen)
		for i := 0; i < tc.srcLen; i++ {
			src.Set(i)
		}
		dst := New(tc.n)
		dst.OrRange(src, tc.at)
		if dst.Count() != tc.srcLen {
			t.Errorf("OrRange(n=%d, srcLen=%d, at=%d): count = %d, want %d",
				tc.n, tc.srcLen, tc.at, dst.Count(), tc.srcLen)
		}
		for i := 0; i < tc.srcLen; i++ {
			if !dst.Get(tc.at + i) {
				t.Fatalf("bit %d not set after OrRange(at=%d)", tc.at+i, tc.at)
			}
		}
	}
}

func TestOrRangeOutOfBoundsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("out-of-range OrRange did not panic")
		}
	}()
	New(64).OrRange(New(32), 40)
}

// TestNextSetBoundaries pins the word-edge cases of the zero-alloc
// iterator.
func TestNextSetBoundaries(t *testing.T) {
	b := New(200)
	for _, i := range []int{0, 63, 64, 127, 128, 199} {
		b.Set(i)
	}
	for _, tc := range []struct{ from, want int }{
		{-5, 0}, {0, 0}, {1, 63}, {63, 63}, {64, 64}, {65, 127},
		{128, 128}, {129, 199}, {199, 199}, {200, -1}, {500, -1},
	} {
		if got := b.NextSet(tc.from); got != tc.want {
			t.Errorf("NextSet(%d) = %d, want %d", tc.from, got, tc.want)
		}
	}
	empty := New(130)
	if got := empty.NextSet(0); got != -1 {
		t.Errorf("empty NextSet(0) = %d", got)
	}
	zero := New(0)
	if got := zero.NextSet(0); got != -1 {
		t.Errorf("zero-length NextSet(0) = %d", got)
	}
}

// TestNextSetAgainstNaive sweeps random bitsets and compares full
// NextSet iteration against Indices.
func TestNextSetAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 60; trial++ {
		n := rng.Intn(300)
		b := New(n)
		for i := 0; i < n; i++ {
			if rng.Intn(4) == 0 {
				b.Set(i)
			}
		}
		var got []int
		for i := b.NextSet(0); i >= 0; i = b.NextSet(i + 1) {
			got = append(got, i)
		}
		want := b.Indices()
		if len(got) != len(want) {
			t.Fatalf("trial %d: NextSet found %d bits, Indices %d", trial, len(got), len(want))
		}
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("trial %d: position %d: NextSet %d, Indices %d", trial, k, got[k], want[k])
			}
		}
	}
}

func TestSetAllAndCopyFrom(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 128, 200} {
		b := New(n)
		b.SetAll()
		if b.Count() != n {
			t.Errorf("SetAll(len %d): count %d", n, b.Count())
		}
		// The tail invariant must hold so OrRange carries stay valid.
		if n > 0 {
			other := New(n + 64)
			other.OrRange(b, 37%(n+1))
			if other.Count() != n {
				t.Errorf("SetAll(len %d): OrRange spilled to %d bits", n, other.Count())
			}
		}
		c := New(n)
		c.CopyFrom(b)
		if !c.Equal(b) {
			t.Errorf("CopyFrom(len %d) not equal", n)
		}
		b.Reset()
		if c.Count() != n {
			t.Errorf("CopyFrom aliased the source words")
		}
	}
}

// TestFilterAgainstNaive drives the kernel with a random keep set and
// checks both the surviving bits and the removed record.
func TestFilterAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 40; trial++ {
		n := rng.Intn(260)
		b := New(n)
		keep := make([]bool, n)
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 0 {
				b.Set(i)
			}
			keep[i] = rng.Intn(2) == 0
		}
		wantKept, wantRemoved := New(n), New(n)
		for i := 0; i < n; i++ {
			if !b.Get(i) {
				continue
			}
			if keep[i] {
				wantKept.Set(i)
			} else {
				wantRemoved.Set(i)
			}
		}
		removed := New(n)
		if n > 0 {
			removed.Set(0) // pre-existing bits must survive the OR
			if !wantRemoved.Get(0) {
				wantRemoved.Set(0)
			}
		}
		b.Filter(func(i int) bool { return keep[i] }, removed)
		if !b.Equal(wantKept) {
			t.Fatalf("trial %d: Filter kept wrong bits", trial)
		}
		if !removed.Equal(wantRemoved) {
			t.Fatalf("trial %d: Filter removed record wrong", trial)
		}
		// nil removed: same survivors, no recording required.
		b2 := wantKept.Clone()
		b2.Filter(func(i int) bool { return i%2 == 0 }, nil)
		for i := b2.NextSet(0); i >= 0; i = b2.NextSet(i + 1) {
			if i%2 != 0 {
				t.Fatalf("trial %d: nil-removed Filter kept odd bit %d", trial, i)
			}
		}
	}
}

// TestGatherAgainstNaive checks Gather bit by bit against Get over
// random keep sets (ascending subsets, the compaction case, plus an
// arbitrary order with repeats), and that the source is untouched.
func TestGatherAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 40; trial++ {
		n := rng.Intn(300)
		b := New(n)
		for i := 0; i < n; i++ {
			if rng.Intn(3) == 0 {
				b.Set(i)
			}
		}
		orig := b.Clone()
		var keep []int32
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 0 {
				keep = append(keep, int32(i))
			}
		}
		if trial%4 == 3 && n > 0 {
			keep = keep[:0]
			for k := rng.Intn(150); k > 0; k-- {
				keep = append(keep, int32(rng.Intn(n)))
			}
		}
		g := b.Gather(keep)
		if g.Len() != len(keep) {
			t.Fatalf("trial %d: Gather len %d, want %d", trial, g.Len(), len(keep))
		}
		for i, k := range keep {
			if g.Get(i) != b.Get(int(k)) {
				t.Fatalf("trial %d: bit %d (source %d) = %v", trial, i, k, g.Get(i))
			}
		}
		// Unused high bits stay clear: Count sees exactly the kept bits.
		want := 0
		for _, k := range keep {
			if b.Get(int(k)) {
				want++
			}
		}
		if g.Count() != want {
			t.Fatalf("trial %d: Count %d, want %d", trial, g.Count(), want)
		}
		if !b.Equal(orig) {
			t.Fatalf("trial %d: Gather modified its source", trial)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Gather of an out-of-range index did not panic")
		}
	}()
	New(10).Gather([]int32{10})
}
