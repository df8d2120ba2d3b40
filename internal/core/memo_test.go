package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"rulematch/internal/bitmap"
)

func TestArrayMemo(t *testing.T) {
	m := NewArrayMemo(16)
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

// Property: the memo agrees with a reference map.
func TestQuickMemosAgree(t *testing.T) {
	prop := func(seed int64, ops []byte) bool {
		rng := rand.New(rand.NewSource(seed))
		am := NewArrayMemo(64)
		ref := make(map[[2]int]float64)
		for _, op := range ops {
			fi, pi := rng.Intn(8), rng.Intn(64)
			if op%2 == 0 {
				v := rng.Float64()
				am.Put(fi, pi, v)
				ref[[2]int{fi, pi}] = v
			} else {
				want, wantOK := ref[[2]int{fi, pi}]
				av, aok := am.Get(fi, pi)
				if aok != wantOK || (wantOK && av != want) {
					return false
				}
			}
		}
		return am.Entries() == int64(len(ref))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestMemoKeepPairs checks the memo against a reference map across a
// compaction of the pair dimension: surviving entries move to their new
// index, dropped ones vanish, the entry count and footprint shrink, and
// the compacted memo keeps growing.
func TestMemoKeepPairs(t *testing.T) {
	const numPairs = 300
	t.Run("array", func(t *testing.T) {
		m := NewArrayMemo(numPairs)
		rng := rand.New(rand.NewSource(5))
		ref := map[[2]int]float64{}
		for i := 0; i < 900; i++ {
			fi, pi, v := rng.Intn(6), rng.Intn(numPairs), rng.Float64()
			m.Put(fi, pi, v)
			ref[[2]int{fi, pi}] = v
		}
		var keep []int32
		for pi := 0; pi < numPairs; pi++ {
			if rng.Intn(3) == 0 {
				keep = append(keep, int32(pi))
			}
		}
		before := m.Bytes()
		m.KeepPairs(keep)
		want := 0
		for ni, opi := range keep {
			for fi := 0; fi < 6; fi++ {
				wv, wok := ref[[2]int{fi, int(opi)}]
				gv, gok := m.Get(fi, ni)
				if wok != gok || (wok && gv != wv) {
					t.Fatalf("memo[%d][%d] (old pair %d) = %v,%v want %v,%v", fi, ni, opi, gv, gok, wv, wok)
				}
				if wok {
					want++
				}
			}
		}
		if m.Entries() != int64(want) {
			t.Fatalf("entries %d after KeepPairs, want %d", m.Entries(), want)
		}
		if m.Bytes() >= before {
			t.Fatalf("footprint %d not below %d after dropping two thirds of the pairs", m.Bytes(), before)
		}
		m.ExtendPairs(len(keep) + 10)
		m.Put(5, len(keep)+9, 0.5)
		if v, ok := m.Get(5, len(keep)+9); !ok || v != 0.5 {
			t.Fatalf("put after compaction and growth = %v,%v", v, ok)
		}
		m.KeepPairs(nil)
		if m.Entries() != 0 {
			t.Fatalf("entries %d after dropping every pair", m.Entries())
		}
	})
}

// TestArrayMemoRowSetRow: Row exposes a row in place (nils before it is
// allocated), and SetRow installs a decoded row whole, refusing one
// sized for another pair count.
func TestArrayMemoRowSetRow(t *testing.T) {
	m := NewArrayMemo(3)
	if vals, present := m.Row(1); vals != nil || present != nil {
		t.Fatal("Row of an unallocated feature is not nil")
	}
	m.Put(0, 2, 0.5)
	if vals, present := m.Row(0); len(vals) != 3 || vals[2] != 0.5 || !present.Get(2) || present.Count() != 1 {
		t.Fatalf("Row(0) = %v, %v", vals, present)
	}
	present := bitmap.New(3)
	present.Set(1)
	m.SetRow(4, []float64{0, 0.25, 0}, present)
	if v, ok := m.Get(4, 1); !ok || v != 0.25 || m.Has(4, 0) || m.Has(3, 1) {
		t.Fatalf("after SetRow: Get(4,1) = %v, %v", v, ok)
	}
	if m.Entries() != 2 || m.Bytes() != 2*(3*8+8) {
		t.Fatalf("Entries %d, Bytes %d", m.Entries(), m.Bytes())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("SetRow accepted a row of the wrong length")
		}
	}()
	m.SetRow(5, []float64{1}, bitmap.New(1))
}
