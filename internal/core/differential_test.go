package core

import (
	"context"
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
// pair-at-a-time Match oracle, the serial batch engine (several block
// sizes) and the sharded batch engine (several worker counts) must
// produce byte-identical MatchState — match bitmap, per-rule true sets,
// per-predicate false bits — identical memo contents, identical Stats
// counters, and state passing Validate.
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
		noMemo := trial%7 == 6

		newMatcher := func(ps []table.Pair, blockSize int) *Matcher {
			m := NewMatcher(c, ps)
			if noMemo {
				m.Memo = nil
			}
			m.ValueCache = valueCache
			m.BlockSize = blockSize
			return m
		}

		ref := newMatcher(pairs, 0)
		want := ref.Match()
		if err := want.Validate(c, pairs); err != nil {
			t.Fatalf("trial %d: Match state invalid: %v", trial, err)
		}

		for _, bs := range []int{1, 64, 100, 1024} {
			m := newMatcher(pairs, bs)
			got := m.MatchState()
			if !got.Equal(want) {
				t.Fatalf("trial %d block=%d: batch state diverges from Match\n%s", trial, bs, f.String())
			}
			if err := got.Validate(c, pairs); err != nil {
				t.Fatalf("trial %d block=%d: %v", trial, bs, err)
			}
			if m.Stats != ref.Stats {
				t.Fatalf("trial %d block=%d: stats diverge: batch %+v Match %+v", trial, bs, m.Stats, ref.Stats)
			}
			if !noMemo {
				assertMemoEqual(t, fmt.Sprintf("trial %d block=%d", trial, bs), m.Memo, ref.Memo, len(c.Features), len(pairs))
			}
			// Marks-only path agrees too.
			bits := newMatcher(pairs, bs).MatchBits()
			if !bits.Equal(want.Matched) {
				t.Fatalf("trial %d block=%d: MatchBits diverges", trial, bs)
			}
		}

		// The worker counts run over the pairs tiled past three chunks, so
		// several goroutines write the state and memo in place.
		tiled := tilePairs(pairs)
		tiledRef := newMatcher(tiled, 0)
		tiledWant := tiledRef.Match()
		// Each worker count's state must equal tiledWant bit for bit, so
		// validating tiledWant once validates them all.
		if err := tiledWant.Validate(c, tiled); err != nil {
			t.Fatalf("trial %d: tiled Match state invalid: %v", trial, err)
		}
		for _, workers := range []int{1, 2, 3, 8} {
			m := newMatcher(tiled, 64)
			got, err := m.MatchStateParallelCtx(context.Background(), workers)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(tiledWant) {
				t.Fatalf("trial %d workers=%d: parallel batch state diverges from Match\n%s", trial, workers, f.String())
			}
			gotStats, wantStats := m.Stats, tiledRef.Stats
			if valueCache {
				// Each chunk keeps its own value cache, so only the sum of
				// computes and value-cache hits is fixed.
				for _, s := range []*Stats{&gotStats, &wantStats} {
					s.FeatureComputes += s.ValueCacheHits
					s.ValueCacheHits = 0
				}
			}
			if gotStats != wantStats {
				t.Fatalf("trial %d workers=%d: stats diverge: sharded %+v Match %+v", trial, workers, m.Stats, tiledRef.Stats)
			}
			if !noMemo {
				assertMemoEqual(t, fmt.Sprintf("trial %d workers=%d", trial, workers), m.Memo, tiledRef.Memo, len(c.Features), len(tiled))
			}
		}
	}
}

// tilePairs repeats pairs until they span more than three of the shard
// driver's chunks (chunkRanges has a 1,024-pair floor), so a
// worker-count comparison runs several chunks on several goroutines.
// State and memo are indexed by position, so a repeated pair is just
// another pair.
func tilePairs(pairs []table.Pair) []table.Pair {
	var out []table.Pair
	for len(chunkRanges(len(out), 8, 64)) <= 3 {
		out = append(out, pairs...)
	}
	return out
}

// TestBatchCacheFirstMarksParity: with check-cache-first enabled the
// batch engine reorders per block rather than per pair, so compute
// counters may legitimately differ from a cache-first Match — but the
// match marks must not.
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
		ref := NewMatcher(c, pairs)
		ref.CheckCacheFirst = true
		want := ref.Match().Matched

		batch := NewMatcher(c, pairs)
		batch.CheckCacheFirst = true
		batch.BlockSize = 64
		// Warm part of the memo so the per-block reorder actually kicks in.
		batch.Precompute([]int{0})
		if !batch.MatchBits().Equal(want) {
			t.Fatalf("trial %d: cache-first batch marks diverge\n%s", trial, f.String())
		}
	}
}
