package incremental_test

import (
	"bytes"
	"context"
	"sync"
	"testing"

	"rulematch/internal/block"
	"rulematch/internal/core"
	"rulematch/internal/datagen"
	"rulematch/internal/incremental"
	"rulematch/internal/persist"
	"rulematch/internal/rule"
	"rulematch/internal/sim"
)

// bindFunc's r0 reaches cosine(modelno) only for pairs whose title
// Jaccard passes, so the cold run leaves it unmemoized for most pairs
// and relaxing r0's first predicate computes cosine(modelno) alone.
const bindFunc = `
rule r0: jaccard(title, title) >= 0.8 and cosine(modelno, modelno) >= 0.5
rule r1: trigram(title, title) >= 0.6 and soundex(brand, brand) >= 1
rule r2: monge_elkan(title, title) >= 0.9 and dice(title, title) >= 0.5
`

// reloadedSession runs bindFunc over a products 0.02 dataset blocked on
// category, snapshots the session and loads the snapshot back under the
// store's engine configuration, the way an evicted session is reloaded.
func reloadedSession(t *testing.T) *incremental.Session {
	t.Helper()
	ds, err := datagen.Generate(datagen.StandardConfig(datagen.Products(), 0.02))
	if err != nil {
		t.Fatal(err)
	}
	pairs, err := block.AttrEquivalence{Attr: "category"}.Pairs(ds.A, ds.B)
	if err != nil {
		t.Fatal(err)
	}
	f, err := rule.ParseFunction(bindFunc)
	if err != nil {
		t.Fatal(err)
	}
	c, err := core.Compile(f, sim.Standard(), ds.A, ds.B)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{Workers: 2}
	s := incremental.NewSessionConfig(c, pairs, cfg)
	if err := s.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := persist.Save(&buf, s, persist.NoFsync()); err != nil {
		t.Fatal(err)
	}
	loaded, err := persist.Load(&buf, sim.Standard(), ds.A, ds.B)
	if err != nil {
		t.Fatal(err)
	}
	loaded.Reconfigure(cfg)
	return loaded
}

// memoCounts returns each bound feature's number of memoized pairs.
func memoCounts(s *incremental.Session) []int {
	out := make([]int, len(s.M.C.Features))
	for fi := range out {
		if _, present := s.M.Memo.Row(fi); present != nil {
			out[fi] = present.Count()
		}
	}
	return out
}

// TestReloadBindsNoProfiles: a reload, a listing and a snapshot build no
// profile, and an edit builds exactly the share group of the one
// feature it computes — the footprint a fresh compile has after
// computing that feature once.
func TestReloadBindsNoProfiles(t *testing.T) {
	s := reloadedSession(t)
	if !s.M.C.ProfileCacheEnabled() {
		t.Fatal("Reconfigure left the profile cache off")
	}
	// A listing: the rules, the match count and the matched pairs.
	listed := 0
	for pi := range s.M.Pairs {
		if s.Matched(pi) {
			listed++
		}
	}
	if listed != s.MatchCount() || s.M.C.Function().String() == "" {
		t.Fatal("listing disagrees with the match count")
	}
	if err := persist.Save(&bytes.Buffer{}, s, persist.NoFsync()); err != nil {
		t.Fatal(err)
	}
	if n := s.M.C.ProfileEntries(); n != 0 {
		t.Fatalf("reload, listing and snapshot bound %d profile entries, want 0", n)
	}

	before, stats := memoCounts(s), s.M.Stats
	if err := s.SetThreshold(0, 0, 0); err != nil {
		t.Fatal(err)
	}
	if s.M.Stats.FeatureComputes == stats.FeatureComputes {
		t.Fatal("the relax computed no feature")
	}
	cos := s.M.C.FeatureIndex("cosine(modelno,modelno)")
	for fi, n := range memoCounts(s) {
		if grew := n > before[fi]; grew != (fi == cos) {
			t.Fatalf("feature %s: memo %d → %d entries; want only cosine(modelno,modelno) computed",
				s.M.C.Features[fi].Key, before[fi], n)
		}
	}
	c := s.M.C
	if got, want := c.ProfileEntries(), c.A.Len()+c.B.Len(); got != want {
		t.Fatalf("after the relax: %d profile entries, want one feature's %d", got, want)
	}
	fresh, err := core.Compile(c.Function(), sim.Standard(), c.A, c.B)
	if err != nil {
		t.Fatal(err)
	}
	fresh.EnableProfileCache()
	fresh.ComputeFeature(fresh.FeatureIndex("cosine(modelno,modelno)"), s.M.Pairs[0])
	if got, want := c.ProfileBytes(), fresh.ProfileBytes(); got != want {
		t.Fatalf("after the relax: %d profile bytes, want cosine(modelno,modelno)'s group alone, %d", got, want)
	}
	if err := s.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentProfileBind: eight goroutines Verify a reloaded session
// — each computes every rule feature pair by pair, binding share groups
// on first compute — while a four-worker full run over the same
// compiled function binds them before its fan-out. Run under -race, an
// unsynchronized bind shows up as a data race on the feature slots and
// the share-group registry.
func TestConcurrentProfileBind(t *testing.T) {
	s := reloadedSession(t)
	if n := s.M.C.ProfileEntries(); n != 0 {
		t.Fatalf("reload bound %d profile entries", n)
	}
	m := core.Config{Workers: 4}.NewMatcher(s.M.C, s.M.Pairs)
	var st *core.MatchState
	errs := make(chan error, 9)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs <- s.Verify()
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		var err error
		st, err = m.MatchStateParallelCtx(context.Background(), 4)
		errs <- err
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if !st.Matched.Equal(s.St.Matched) {
		t.Fatal("the concurrent full run disagrees with the reloaded state")
	}
}
