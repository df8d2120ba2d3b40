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

// NewMatcher must behave exactly as the historical default and must
// not disturb the compiled function's profile cache.
func TestNewMatcherDefaultsPreserved(t *testing.T) {
	c, pairs := configFixture(t)
	c.EnableProfileCache()
	m := NewMatcher(c, pairs)
	if m.Memo == nil {
		t.Fatal("default matcher must memoize")
	}
	if m.CheckCacheFirst || m.ValueCache || m.Engine != EngineBatch {
		t.Fatal("default matcher must run the batch engine without cache-first or value cache")
	}
	if !c.ProfileCacheEnabled() {
		t.Fatal("NewMatcher cleared the profile cache")
	}
}

// Config.NewMatcher carries every Config field onto the matcher and
// the compiled function.
func TestNewMatcherOptions(t *testing.T) {
	c, pairs := configFixture(t)
	cfg := DefaultConfig()
	cfg.Engine = EngineScalar
	cfg.Workers = 3
	cfg.CheckCacheFirst = true
	cfg.ProfileCache = true
	m := cfg.NewMatcher(c, pairs)
	if m.Engine != EngineScalar {
		t.Errorf("engine = %v, want scalar", m.Engine)
	}
	if m.Workers != 3 || !m.CheckCacheFirst || m.Memo == nil {
		t.Errorf("matcher fields not applied: %+v", m)
	}
	if !c.ProfileCacheEnabled() {
		t.Error("profile cache not applied")
	}
	cfg = DefaultConfig()
	cfg.Memo = false
	m2 := cfg.NewMatcher(c, pairs)
	if m2.Memo != nil {
		t.Error("Memo=false still memoizes")
	}
	if m2.Engine != EngineBatch {
		t.Errorf("engine = %v, want batch", m2.Engine)
	}
	if c.ProfileCacheEnabled() {
		t.Error("ProfileCache=false left the profile cache on")
	}
}

// A Config-built matcher must produce the same matches as the setter
// style, on both engines.
func TestConfigMatchesSetterStyle(t *testing.T) {
	c1, pairs := configFixture(t)
	old := NewMatcher(c1, pairs)
	old.CheckCacheFirst = true
	c1.EnableProfileCache()
	want := old.MatchBits()

	c2, _ := configFixture(t)
	cfg := DefaultConfig()
	cfg.CheckCacheFirst = true
	cfg.ProfileCache = true
	got := cfg.NewMatcher(c2, pairs).MatchBits()
	if !got.Equal(want) {
		t.Fatal("config-built matcher disagrees with setter-built matcher")
	}

	for _, e := range []Engine{EngineBatch, EngineScalar} {
		c3, _ := configFixture(t)
		cfg := DefaultConfig()
		cfg.Engine = e
		if !cfg.NewMatcher(c3, pairs).MatchBits().Equal(want) {
			t.Fatalf("engine %v disagrees", e)
		}
	}
}

func TestSetProfileCacheDisable(t *testing.T) {
	c, pairs := configFixture(t)
	c.EnableProfileCache()
	if c.ProfileEntries() == 0 {
		t.Fatal("no profiles built")
	}
	withProfiles := NewMatcher(c, pairs).MatchBits()
	c.SetProfileCache(false)
	if c.ProfileCacheEnabled() || c.ProfileEntries() != 0 {
		t.Fatal("SetProfileCache(false) left profiles behind")
	}
	raw := NewMatcher(c, pairs).MatchBits()
	if !raw.Equal(withProfiles) {
		t.Fatal("disabling the profile cache changed scores")
	}
	c.SetProfileCache(true)
	if !c.ProfileCacheEnabled() || c.ProfileEntries() == 0 {
		t.Fatal("SetProfileCache(true) did not rebuild")
	}
}

func TestChunkRanges(t *testing.T) {
	for _, tc := range []struct{ n, workers int }{
		{0, 4}, {1, 1}, {63, 8}, {64, 1}, {1024, 4}, {100_000, 8}, {5000, 3},
	} {
		ranges := ChunkRanges(tc.n, tc.workers)
		covered := 0
		for i, rg := range ranges {
			if rg.Hi <= rg.Lo {
				t.Fatalf("n=%d w=%d: empty range %v", tc.n, tc.workers, rg)
			}
			if rg.Lo != covered {
				t.Fatalf("n=%d w=%d: gap before range %d", tc.n, tc.workers, i)
			}
			if i < len(ranges)-1 && rg.Len()%64 != 0 {
				t.Fatalf("n=%d w=%d: interior chunk %v not word-aligned", tc.n, tc.workers, rg)
			}
			covered = rg.Hi
		}
		if covered != tc.n {
			t.Fatalf("n=%d w=%d: ranges cover %d pairs", tc.n, tc.workers, covered)
		}
	}
}

// A cancelled context must abort the parallel runs with the matcher
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
		t.Fatal("parallel ctx state differs from serial")
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
}
