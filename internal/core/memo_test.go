package core

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func testMemoBasics(t *testing.T, m Memo) {
	t.Helper()
	if _, ok := m.Get(0, 0); ok {
		t.Error("fresh memo has a value")
	}
	m.Put(2, 7, 0.25)
	if v, ok := m.Get(2, 7); !ok || v != 0.25 {
		t.Errorf("Get = %v, %v", v, ok)
	}
	if !m.Has(2, 7) || m.Has(2, 8) || m.Has(3, 7) {
		t.Error("Has wrong")
	}
	if m.Entries() != 1 {
		t.Errorf("entries = %d", m.Entries())
	}
	m.Put(2, 7, 0.5) // overwrite does not double count
	if m.Entries() != 1 {
		t.Errorf("entries after overwrite = %d", m.Entries())
	}
	if v, _ := m.Get(2, 7); v != 0.5 {
		t.Errorf("overwritten value = %v", v)
	}
	// Zero values are distinguishable from absence.
	m.Put(0, 0, 0)
	if v, ok := m.Get(0, 0); !ok || v != 0 {
		t.Error("stored zero not found")
	}
	if m.Bytes() <= 0 {
		t.Error("Bytes not positive after puts")
	}
}

func TestArrayMemo(t *testing.T) { testMemoBasics(t, NewArrayMemo(16)) }
func TestHashMemo(t *testing.T)  { testMemoBasics(t, NewHashMemo()) }

func TestArrayMemoLazyRows(t *testing.T) {
	m := NewArrayMemo(1000)
	if m.Bytes() != 0 {
		t.Error("fresh array memo claims memory")
	}
	m.Put(5, 0, 1)
	one := m.Bytes()
	m.Put(5, 999, 1)
	if m.Bytes() != one {
		t.Error("second put in same row grew memory")
	}
	m.Put(6, 0, 1)
	if m.Bytes() != 2*one {
		t.Errorf("two rows = %d bytes, want %d", m.Bytes(), 2*one)
	}
}

// Property: both memo implementations agree with a reference map.
func TestQuickMemosAgree(t *testing.T) {
	prop := func(seed int64, ops []byte) bool {
		rng := rand.New(rand.NewSource(seed))
		am := NewArrayMemo(64)
		hm := NewHashMemo()
		ref := make(map[[2]int]float64)
		for _, op := range ops {
			fi, pi := rng.Intn(8), rng.Intn(64)
			if op%2 == 0 {
				v := rng.Float64()
				am.Put(fi, pi, v)
				hm.Put(fi, pi, v)
				ref[[2]int{fi, pi}] = v
			} else {
				want, wantOK := ref[[2]int{fi, pi}]
				av, aok := am.Get(fi, pi)
				hv, hok := hm.Get(fi, pi)
				if aok != wantOK || hok != wantOK {
					return false
				}
				if wantOK && (av != want || hv != want) {
					return false
				}
			}
		}
		return am.Entries() == int64(len(ref)) && hm.Entries() == int64(len(ref))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestHashMemoFootprint is the regression test for HashMemo.Bytes: the
// model must charge real Go map overhead (8-slot buckets, doubling
// bucket array), not the raw 16-byte key+value payload, so the §7.4
// ArrayMemo/HashMemo trade-off in MemoryReport reflects reality.
func TestHashMemoFootprint(t *testing.T) {
	m := NewHashMemo()
	if m.Bytes() != hashMapHeaderBytes {
		t.Errorf("empty hash memo = %d bytes, want header %d", m.Bytes(), hashMapHeaderBytes)
	}
	for pi := 0; pi < 1000; pi++ {
		m.Put(0, pi, float64(pi))
	}
	perEntry := float64(m.Bytes()) / 1000
	// Lower bound: strictly more than the raw payload (8B key + 8B value).
	if perEntry <= 16 {
		t.Errorf("per-entry cost %.1fB does not exceed the raw payload", perEntry)
	}
	// Upper bound: buckets double, so capacity at most ~2x entries plus
	// slack — the per-entry cost stays under 64B for a full map.
	if perEntry > 64 {
		t.Errorf("per-entry cost %.1fB implausibly high", perEntry)
	}
	// Monotone in entry count.
	small := NewHashMemo()
	for pi := 0; pi < 10; pi++ {
		small.Put(0, pi, 1)
	}
	if small.Bytes() >= m.Bytes() {
		t.Errorf("10 entries (%dB) not cheaper than 1000 (%dB)", small.Bytes(), m.Bytes())
	}
}

// TestMemoFootprintTradeOff pins the §7.4 trade-off both ways: with a
// sparse memo (early exit touched few pairs) the hash layout wins; with
// a dense memo the array layout wins. Before the Bytes fix the hash
// memo claimed 16B/entry and appeared to beat the array even when
// nearly every pair was computed.
func TestMemoFootprintTradeOff(t *testing.T) {
	const numPairs = 10000
	fill := func(m Memo, every int) {
		for pi := 0; pi < numPairs; pi += every {
			m.Put(0, pi, 0.5)
		}
	}
	// Sparse: 1% of pairs memoized.
	sa, sh := NewArrayMemo(numPairs), NewHashMemo()
	fill(sa, 100)
	fill(sh, 100)
	if sh.Bytes() >= sa.Bytes() {
		t.Errorf("sparse: hash %dB not below array %dB", sh.Bytes(), sa.Bytes())
	}
	// Dense: every pair memoized.
	da, dh := NewArrayMemo(numPairs), NewHashMemo()
	fill(da, 1)
	fill(dh, 1)
	if da.Bytes() >= dh.Bytes() {
		t.Errorf("dense: array %dB not below hash %dB", da.Bytes(), dh.Bytes())
	}
}

func TestArrayMemoAbsorbRange(t *testing.T) {
	full := NewArrayMemo(200)
	// Warm entries outside and inside the absorbed range.
	full.Put(0, 5, 0.5)
	full.Put(1, 70, 0.7)      // inside range, absent from shard: must survive
	full.Put(0, 66, 0.1)      // inside range, present in shard: overwritten
	shard := NewArrayMemo(80) // covers pairs [65, 145)
	shard.Put(0, 1, 0.9)      // global pair 66
	shard.Put(2, 79, 0.3)     // global pair 144
	full.absorbRange(shard, 65)
	for _, tc := range []struct {
		fi, pi int
		v      float64
	}{{0, 5, 0.5}, {1, 70, 0.7}, {0, 66, 0.9}, {2, 144, 0.3}} {
		if v, ok := full.Get(tc.fi, tc.pi); !ok || v != tc.v {
			t.Errorf("Get(%d,%d) = %v,%v want %v", tc.fi, tc.pi, v, ok, tc.v)
		}
	}
	if full.Entries() != 4 {
		t.Errorf("entries = %d, want 4", full.Entries())
	}
	if full.Has(2, 79) {
		t.Error("shard-local index leaked without offset")
	}
}

func TestArrayMemoAbsorbRangeBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("out-of-range absorb did not panic")
		}
	}()
	NewArrayMemo(10).absorbRange(NewArrayMemo(8), 5)
}

func TestAbsorbMemoRangeHashFallback(t *testing.T) {
	dst := NewHashMemo()
	shard := NewArrayMemo(16)
	shard.Put(1, 3, 0.25)
	shard.Put(0, 15, 0.75)
	absorbMemoRange(dst, shard, 32)
	if v, ok := dst.Get(1, 35); !ok || v != 0.25 {
		t.Errorf("hash absorb Get(1,35) = %v,%v", v, ok)
	}
	if v, ok := dst.Get(0, 47); !ok || v != 0.75 {
		t.Errorf("hash absorb Get(0,47) = %v,%v", v, ok)
	}
	if dst.Entries() != 2 {
		t.Errorf("entries = %d", dst.Entries())
	}
}

func TestOverlayMemo(t *testing.T) {
	base := NewArrayMemo(100)
	base.Put(0, 42, 0.42) // global pair 42 = local pair 2 at offset 40
	om := newOverlayMemo(base, 40, 30)
	if v, ok := om.Get(0, 2); !ok || v != 0.42 {
		t.Errorf("base read through overlay = %v,%v", v, ok)
	}
	if !om.Has(0, 2) || om.Has(0, 3) {
		t.Error("overlay Has wrong")
	}
	om.Put(1, 5, 0.9)
	if v, ok := om.Get(1, 5); !ok || v != 0.9 {
		t.Errorf("overlay write-read = %v,%v", v, ok)
	}
	// Writes never touch the base.
	if base.Has(1, 45) {
		t.Error("overlay write leaked into base")
	}
	if om.Entries() != 1 {
		t.Errorf("overlay entries = %d (base must not be counted)", om.Entries())
	}
	// Overlay wins over base on double-put.
	om.Put(0, 2, 0.1)
	if v, _ := om.Get(0, 2); v != 0.1 {
		t.Errorf("overlay did not shadow base: %v", v)
	}
	// Nil base: pure shard-local memo.
	cold := newOverlayMemo(nil, 0, 10)
	if _, ok := cold.Get(0, 0); ok {
		t.Error("cold overlay has a value")
	}
	testMemoBasics(t, newOverlayMemo(nil, 0, 16))
}

// TestMemoKeepPairs checks both session memo layouts against a
// reference map across a compaction of the pair dimension: surviving
// entries move to their new index, dropped ones vanish, the entry
// count and footprint shrink, and the compacted memo keeps growing.
func TestMemoKeepPairs(t *testing.T) {
	const numPairs = 300
	for _, tc := range []struct {
		name string
		m    Memo
	}{{"array", NewArrayMemo(numPairs)}, {"hash", NewHashMemo()}} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(5))
			ref := map[[2]int]float64{}
			for i := 0; i < 900; i++ {
				fi, pi, v := rng.Intn(6), rng.Intn(numPairs), rng.Float64()
				tc.m.Put(fi, pi, v)
				ref[[2]int{fi, pi}] = v
			}
			var keep []int32
			for pi := 0; pi < numPairs; pi++ {
				if rng.Intn(3) == 0 {
					keep = append(keep, int32(pi))
				}
			}
			before := tc.m.Bytes()
			tc.m.KeepPairs(keep)
			want := 0
			for ni, opi := range keep {
				for fi := 0; fi < 6; fi++ {
					wv, wok := ref[[2]int{fi, int(opi)}]
					gv, gok := tc.m.Get(fi, ni)
					if wok != gok || (wok && gv != wv) {
						t.Fatalf("memo[%d][%d] (old pair %d) = %v,%v want %v,%v", fi, ni, opi, gv, gok, wv, wok)
					}
					if wok {
						want++
					}
				}
			}
			if tc.m.Entries() != int64(want) {
				t.Fatalf("entries %d after KeepPairs, want %d", tc.m.Entries(), want)
			}
			if tc.m.Bytes() >= before {
				t.Fatalf("footprint %d not below %d after dropping two thirds of the pairs", tc.m.Bytes(), before)
			}
			tc.m.ExtendPairs(len(keep) + 10)
			tc.m.Put(5, len(keep)+9, 0.5)
			if v, ok := tc.m.Get(5, len(keep)+9); !ok || v != 0.5 {
				t.Fatalf("put after compaction and growth = %v,%v", v, ok)
			}
			tc.m.KeepPairs(nil)
			if tc.m.Entries() != 0 {
				t.Fatalf("entries %d after dropping every pair", tc.m.Entries())
			}
		})
	}
}
