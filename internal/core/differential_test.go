package core

import (
	"fmt"
	"math/rand"
	"testing"

	"rulematch/internal/rule"
	"rulematch/internal/sim"
	"rulematch/internal/table"
)

// randomTables builds a pair of random string tables sized so the cross
// product spans several 64-bit bitmap words and multiple small blocks.
func randomTables(rng *rand.Rand) (*table.Table, *table.Table, []table.Pair) {
	attrs := []string{"name", "phone", "city"}
	a := table.MustNew("A", attrs)
	b := table.MustNew("B", attrs)
	words := []string{"ann", "anne", "bob", "bobby", "carol", "404", "4045551234", "madison", "madson", "chicago", "nyc", ""}
	randVal := func() string {
		v := words[rng.Intn(len(words))]
		if rng.Intn(4) == 0 {
			v += " " + words[rng.Intn(len(words))]
		}
		return v
	}
	na, nb := 8+rng.Intn(10), 12+rng.Intn(14)
	for i := 0; i < na; i++ {
		a.Append(fmt.Sprintf("a%d", i), randVal(), randVal(), randVal())
	}
	for i := 0; i < nb; i++ {
		b.Append(fmt.Sprintf("b%d", i), randVal(), randVal(), randVal())
	}
	var pairs []table.Pair
	for i := 0; i < na; i++ {
		for j := 0; j < nb; j++ {
			pairs = append(pairs, table.Pair{A: int32(i), B: int32(j)})
		}
	}
	return a, b, pairs
}

// randomFunction draws a random rule set over the fixture attributes.
func randomFunction(rng *rand.Rand) rule.Function {
	sims := []string{"jaro", "jaro_winkler", "levenshtein", "jaccard", "exact_match", "tf_idf", "trigram"}
	attrs := []string{"name", "phone", "city"}
	var f rule.Function
	numRules := 1 + rng.Intn(5)
	for ri := 0; ri < numRules; ri++ {
		var r rule.Rule
		r.Name = fmt.Sprintf("r%d", ri+1)
		numPreds := 1 + rng.Intn(4)
		for pj := 0; pj < numPreds; pj++ {
			attr := attrs[rng.Intn(len(attrs))]
			op := rule.Ge
			if rng.Intn(3) == 0 {
				op = rule.Lt
			}
			r.Preds = append(r.Preds, rule.Predicate{
				Feature:   rule.Feature{Sim: sims[rng.Intn(len(sims))], AttrA: attr, AttrB: attr},
				Op:        op,
				Threshold: float64(rng.Intn(10)) / 10,
			})
		}
		f.Rules = append(f.Rules, r)
	}
	return f
}

// TestBatchDifferentialParity is the differential property test of the
// batch execution engine: over random rule sets, tables and seeds, the
// scalar reference, the serial batch engine (several block sizes) and
// the sharded batch engine (several worker counts) must produce
// byte-identical MatchState — match bitmap, per-rule true sets,
// per-predicate false bits — identical memo contents, matching Stats
// counters on the serial paths, and state passing Validate.
func TestBatchDifferentialParity(t *testing.T) {
	lib := sim.Standard()
	for trial := 0; trial < 30; trial++ {
		rng := rand.New(rand.NewSource(int64(1000 + trial)))
		a, b, pairs := randomTables(rng)
		f := randomFunction(rng)
		c, err := Compile(f, lib, a, b)
		if err != nil {
			continue // contradictory random rule: fine
		}
		valueCache := trial%3 == 0
		useHashMemo := trial%5 == 4
		noMemo := trial%7 == 6

		newMatcher := func(engine Engine, blockSize int) *Matcher {
			m := NewMatcher(c, pairs)
			if useHashMemo {
				m.Memo = NewHashMemo()
			}
			if noMemo {
				m.Memo = nil
			}
			m.ValueCache = valueCache
			m.Engine = engine
			m.BlockSize = blockSize
			return m
		}

		scalar := newMatcher(EngineScalar, 0)
		want := scalar.MatchState()
		if err := want.Validate(c, pairs); err != nil {
			t.Fatalf("trial %d: scalar state invalid: %v", trial, err)
		}

		for _, bs := range []int{1, 64, 100, 1024} {
			m := newMatcher(EngineBatch, bs)
			got := m.MatchState()
			if !got.Equal(want) {
				t.Fatalf("trial %d block=%d: batch state diverges from scalar\n%s", trial, bs, f.String())
			}
			if err := got.Validate(c, pairs); err != nil {
				t.Fatalf("trial %d block=%d: %v", trial, bs, err)
			}
			if m.Stats != scalar.Stats {
				t.Fatalf("trial %d block=%d: stats diverge: batch %+v scalar %+v", trial, bs, m.Stats, scalar.Stats)
			}
			if !noMemo {
				for fi := range c.Features {
					for pi := range pairs {
						sv, sok := scalar.Memo.Get(fi, pi)
						bv, bok := m.Memo.Get(fi, pi)
						if sok != bok || sv != bv {
							t.Fatalf("trial %d block=%d: memo (%d,%d) = %v,%v want %v,%v",
								trial, bs, fi, pi, bv, bok, sv, sok)
						}
					}
				}
			}
			// Marks-only path agrees too.
			bits := newMatcher(EngineBatch, bs).MatchBits()
			if !bits.Equal(want.Matched) {
				t.Fatalf("trial %d block=%d: MatchBits diverges", trial, bs)
			}
		}

		for _, workers := range []int{1, 2, 3, 8} {
			m := newMatcher(EngineBatch, 64)
			got := m.MatchStateParallel(workers)
			if !got.Equal(want) {
				t.Fatalf("trial %d workers=%d: parallel batch state diverges from scalar\n%s", trial, workers, f.String())
			}
			if err := got.Validate(c, pairs); err != nil {
				t.Fatalf("trial %d workers=%d: %v", trial, workers, err)
			}
			if m.Stats.PairEvals != int64(len(pairs)) {
				t.Fatalf("trial %d workers=%d: %d pair evals, want %d", trial, workers, m.Stats.PairEvals, len(pairs))
			}
		}
	}
}

// TestBatchCacheFirstMarksParity: with check-cache-first enabled the
// batch engine reorders per block rather than per pair, so compute
// counters may legitimately differ from the scalar run — but the match
// marks must not.
func TestBatchCacheFirstMarksParity(t *testing.T) {
	lib := sim.Standard()
	for trial := 0; trial < 10; trial++ {
		rng := rand.New(rand.NewSource(int64(2000 + trial)))
		a, b, pairs := randomTables(rng)
		f := randomFunction(rng)
		c, err := Compile(f, lib, a, b)
		if err != nil {
			continue
		}
		scalar := NewMatcher(c, pairs)
		scalar.CheckCacheFirst = true
		scalar.Engine = EngineScalar
		want := scalar.MatchBits()

		batch := NewMatcher(c, pairs)
		batch.CheckCacheFirst = true
		batch.Engine = EngineBatch
		batch.BlockSize = 64
		// Warm part of the memo so the per-block reorder actually kicks in.
		batch.Precompute([]int{0})
		if !batch.MatchBits().Equal(want) {
			t.Fatalf("trial %d: cache-first batch marks diverge\n%s", trial, f.String())
		}
	}
}

// TestBatchEngineDispatch pins engine selection: the zero Engine is the
// batch engine, so a default matcher runs it, and an explicit
// EngineScalar routes MatchState to the pair-at-a-time path. Both must
// agree.
func TestBatchEngineDispatch(t *testing.T) {
	var zero Engine
	if zero != EngineBatch || DefaultConfig().Engine != EngineBatch {
		t.Fatal("the zero Engine must be the batch engine")
	}
	c, pairs := mustCompile(t, testFunc)
	m := NewMatcher(c, pairs)
	if m.Engine != EngineBatch {
		t.Fatalf("default matcher engine = %v, want batch", m.Engine)
	}
	want := m.MatchState()
	scalar := NewMatcher(c, pairs)
	scalar.Engine = EngineScalar
	if !scalar.MatchState().Equal(want) {
		t.Fatal("scalar and batch engines disagree")
	}
}
