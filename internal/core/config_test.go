package core

import (
	"context"
	"runtime"
	"testing"

	"rulematch/internal/rule"
	"rulematch/internal/sim"
	"rulematch/internal/table"
)

func configFixture(t testing.TB) (*Compiled, []table.Pair) {
	t.Helper()
	a := table.MustNew("A", []string{"name", "city"})
	b := table.MustNew("B", []string{"name", "city"})
	for i, r := range [][]string{
		{"matthew richardson", "seattle"},
		{"john smith", "madison"},
		{"maria garcia", "chicago"},
		{"wei chen", "milwaukee"},
	} {
		if err := a.Append("a"+string(rune('0'+i)), r...); err != nil {
			t.Fatal(err)
		}
	}
	for i, r := range [][]string{
		{"matt richardson", "seattle"},
		{"jon smith", "madison"},
		{"mary garcia", "chicago"},
		{"someone else", "nowhere"},
	} {
		if err := b.Append("b"+string(rune('0'+i)), r...); err != nil {
			t.Fatal(err)
		}
	}
	var pairs []table.Pair
	for i := 0; i < a.Len(); i++ {
		for j := 0; j < b.Len(); j++ {
			pairs = append(pairs, table.Pair{A: int32(i), B: int32(j)})
		}
	}
	f, err := rule.ParseFunction("rule r1: jaccard(name, name) >= 0.4\nrule r2: jaro_winkler(name, name) >= 0.9")
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compile(f, sim.Standard(), a, b)
	if err != nil {
		t.Fatal(err)
	}
	return c, pairs
}

// NormalizeWorkers is the single definition of worker-count semantics;
// every parallel path goes through it.
func TestNormalizeWorkers(t *testing.T) {
	gomax := runtime.GOMAXPROCS(0)
	cases := []struct{ in, want int }{
		{0, gomax},
		{-1, gomax},
		{-100, gomax},
		{1, 1},
		{7, 7},
	}
	for _, c := range cases {
		if got := NormalizeWorkers(c.in); got != c.want {
			t.Errorf("NormalizeWorkers(%d) = %d, want %d", c.in, got, c.want)
		}
	}
}

// NewMatcher is Algorithm 4 as the paper figures run it: array memo,
// static predicate order, one worker, and the compiled function's
// profile cache left as it is.
func TestNewMatcherDefaultsPreserved(t *testing.T) {
	c, pairs := configFixture(t)
	m := NewMatcher(c, pairs)
	if m.Memo == nil {
		t.Fatal("default matcher has no memo")
	}
	if m.CheckCacheFirst || m.ValueCache || m.Workers != 1 {
		t.Fatal("default matcher must run one worker without cache-first or value cache")
	}
	if c.ProfileCacheEnabled() {
		t.Fatal("NewMatcher turned the profile cache on")
	}
	c.EnableProfileCache()
	NewMatcher(c, pairs)
	if !c.ProfileCacheEnabled() {
		t.Fatal("NewMatcher cleared the profile cache")
	}
}

// Config.NewMatcher builds the configured matcher: array memo,
// check-cache-first, the configured workers and the profile cache on.
// Apply configures an existing matcher the same way and keeps its memo.
func TestNewMatcherOptions(t *testing.T) {
	c, pairs := configFixture(t)
	m := Config{Workers: 3}.NewMatcher(c, pairs)
	if m.Memo == nil {
		t.Error("configured matcher has no memo")
	}
	if m.Workers != 3 || !m.CheckCacheFirst {
		t.Errorf("matcher fields not applied: %+v", m)
	}
	if !c.ProfileCacheEnabled() {
		t.Error("profile cache not applied")
	}

	c2, _ := configFixture(t)
	m2 := NewMatcher(c2, pairs)
	memo := m2.Memo
	Config{Workers: 0}.Apply(m2)
	if m2.Workers != 0 || !m2.CheckCacheFirst || !c2.ProfileCacheEnabled() || m2.Memo != memo {
		t.Errorf("Apply: workers %d, cacheFirst %v, profiles %v, memo kept %v",
			m2.Workers, m2.CheckCacheFirst, c2.ProfileCacheEnabled(), m2.Memo == memo)
	}
}

// A Config-built matcher must produce the same matches as the setter
// style and as the pair-at-a-time Match oracle.
func TestConfigMatchesSetterStyle(t *testing.T) {
	c1, pairs := configFixture(t)
	old := NewMatcher(c1, pairs)
	old.CheckCacheFirst = true
	c1.EnableProfileCache()
	want := old.MatchBits()

	c2, _ := configFixture(t)
	got := Config{Workers: 1}.NewMatcher(c2, pairs).MatchBits()
	if !got.Equal(want) {
		t.Fatal("config-built matcher disagrees with setter-built matcher")
	}

	c3, _ := configFixture(t)
	if !NewMatcher(c3, pairs).Match().Matched.Equal(want) {
		t.Fatal("config-built matcher disagrees with Match")
	}
}

func TestChunkRanges(t *testing.T) {
	for _, tc := range []struct{ n, workers, block int }{
		{0, 4, 1024}, {1, 1, 1024}, {63, 8, 64}, {64, 1, 64}, {1024, 4, 1024},
		{100_000, 8, 1024}, {5000, 3, 1024}, {5000, 1, 1024}, {5000, 1, 320}, {9000, 2, 4096},
	} {
		ranges := chunkRanges(tc.n, tc.workers, tc.block)
		covered := 0
		for i, rg := range ranges {
			if rg.hi <= rg.lo {
				t.Fatalf("%+v: empty range %v", tc, rg)
			}
			if rg.lo != covered {
				t.Fatalf("%+v: gap before range %d", tc, i)
			}
			// Every chunk starts on a block boundary, so batch blocks
			// fall where a whole-range run puts them.
			if rg.lo%tc.block != 0 {
				t.Fatalf("%+v: chunk %v does not start on a block boundary", tc, rg)
			}
			covered = rg.hi
		}
		if covered != tc.n {
			t.Fatalf("%+v: ranges cover %d pairs", tc, covered)
		}
	}
}

// A cancelled context must abort the sharded runs with the matcher
// untouched; a background context must be byte-identical to the serial
// run.
func TestMatchStateParallelCtx(t *testing.T) {
	c, pairs := configFixture(t)
	serial := NewMatcher(c, pairs)
	want := serial.MatchState()

	m := NewMatcher(c, pairs)
	st, err := m.MatchStateParallelCtx(context.Background(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Equal(want) {
		t.Fatal("sharded state differs from serial")
	}
	if m.Stats != serial.Stats {
		t.Fatalf("stats differ: %+v vs %+v", m.Stats, serial.Stats)
	}

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	m2 := NewMatcher(c, pairs)
	statsBefore := m2.Stats
	if _, err := m2.MatchStateParallelCtx(cancelled, 4); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if m2.Stats != statsBefore || m2.Memo.Entries() != 0 {
		t.Fatal("cancelled run mutated the matcher")
	}
	if _, err := m2.MatchParallelCtx(cancelled, 4); err != context.Canceled {
		t.Fatalf("MatchParallelCtx err = %v, want context.Canceled", err)
	}
	if m2.Stats != statsBefore || m2.Memo.Entries() != 0 {
		t.Fatal("cancelled marks-only run mutated the matcher")
	}
}
