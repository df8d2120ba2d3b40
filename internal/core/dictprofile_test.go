package core

import (
	"fmt"
	"math/rand"
	"testing"

	"rulematch/internal/rule"
	"rulematch/internal/sim"
	"rulematch/internal/table"
)

// dictFunction draws a random rule set biased toward profiled
// similarities so the encoded kernels actually execute.
func dictFunction(rng *rand.Rand) rule.Function {
	sims := []string{
		"jaccard", "dice", "overlap", "cosine", "trigram", "soundex",
		"tf_idf", "soft_tf_idf", "monge_elkan", "levenshtein", "jaro",
	}
	attrs := []string{"name", "phone", "city"}
	var f rule.Function
	numRules := 1 + rng.Intn(4)
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

// TestProfileModesDifferentialParity is the differential property test
// of the profile cache: over random rule sets and tables, a
// profile-less Match (raw Fn.Sim) and the configured matcher's batch
// run over the profile cache — dictionary-encoded sets plus
// MongeElkan's map profiles — must produce byte-equal MatchState and
// identical memo contents.
func TestProfileModesDifferentialParity(t *testing.T) {
	lib := sim.Standard()
	for trial := 0; trial < 20; trial++ {
		rng := rand.New(rand.NewSource(int64(3000 + trial)))
		a, b, pairs := randomTables(rng)
		f := dictFunction(rng)

		ref, err := Compile(f, lib, a, b)
		if err != nil {
			continue // contradictory random rule: fine
		}
		oracle := NewMatcher(ref, pairs)
		want := oracle.Match()

		c, err := Compile(f, lib, a, b)
		if err != nil {
			t.Fatalf("trial %d: recompile failed: %v", trial, err)
		}
		m := Config{Workers: 1}.NewMatcher(c, pairs)
		if !c.ProfileCacheEnabled() {
			t.Fatal("configured matcher runs without the profile cache")
		}
		if !m.MatchState().Equal(want) {
			t.Fatalf("trial %d: state diverges from profile-less Match\n%s", trial, f.String())
		}
		for fi := range ref.Features {
			for pi := range pairs {
				sv, sok := oracle.Memo.Get(fi, pi)
				bv, bok := m.Memo.Get(fi, pi)
				if sok != bok || sv != bv {
					t.Fatalf("trial %d: memo (%d,%d) = %v,%v want %v,%v", trial, fi, pi, bv, bok, sv, sok)
				}
			}
		}
	}
}

// TestDictProfileSharing pins the two sharing levels: features with the
// same profile kind over the same columns alias one profile set, and
// features drawing from the same token space share one dictionary
// across kinds. A profiler without an ID emitter (MongeElkan) gets map
// profiles, and every score equals the profile-less raw Fn.Sim.
func TestDictProfileSharing(t *testing.T) {
	lib := sim.Standard()
	a := table.MustNew("A", []string{"name"})
	b := table.MustNew("B", []string{"name"})
	a.Append("a0", "sony vaio laptop")
	a.Append("a1", "dell inspiron")
	b.Append("b0", "sony laptop")
	b.Append("b1", "apple macbook")

	var f rule.Function
	r := rule.Rule{Name: "r1"}
	for _, s := range []string{"jaccard", "dice", "overlap", "cosine", "tf_idf", "soft_tf_idf", "soundex", "monge_elkan"} {
		r.Preds = append(r.Preds, rule.Predicate{
			Feature:   rule.Feature{Sim: s, AttrA: "name", AttrB: "name"},
			Op:        rule.Ge,
			Threshold: 0.1,
		})
	}
	f.Rules = append(f.Rules, r)

	c, err := Compile(f, lib, a, b)
	if err != nil {
		t.Fatal(err)
	}
	c.EnableProfileCache()

	// Token spaces: whitespace words (jaccard/dice/overlap/cosine/
	// tf_idf/soft_tf_idf) and soundex codes — two dictionaries.
	if len(c.dicts) != 2 {
		t.Errorf("got %d dictionaries, want 2 (whitespace + soundex)", len(c.dicts))
	}
	// Profile kinds: set|ws (jaccard=dice=overlap), count|ws (cosine),
	// tfidf|ws (tf_idf=soft_tf_idf), set|sdx (soundex) — four sets.
	if len(c.sharedSides) != 4 {
		t.Errorf("got %d shared profile sets, want 4", len(c.sharedSides))
	}
	// Same-kind features must alias the same slices, not copies.
	ji, di := c.FeatureIndex("jaccard(name,name)"), c.FeatureIndex("dice(name,name)")
	if ji < 0 || di < 0 {
		t.Fatalf("feature keys not found (jaccard=%d dice=%d)", ji, di)
	}
	jp, dp := c.profiles[ji], c.profiles[di]
	if jp == nil || dp == nil {
		t.Fatal("profiled features missing profile sets")
	}
	if &jp.side[0][0] != &dp.side[0][0] {
		t.Error("jaccard and dice do not share their encoded profile set")
	}
	if jp.dict == nil || jp.dict != dp.dict {
		t.Error("jaccard and dice do not share a dictionary")
	}
	mi := c.FeatureIndex("monge_elkan(name,name)")
	if mi < 0 {
		t.Fatal("monge_elkan feature key not found")
	}
	if mp := c.profiles[mi]; mp == nil || mp.dict != nil || mp.shareKey != "" {
		t.Error("monge_elkan should cache unshared map profiles")
	}

	if got := c.ProfileBytes(); got <= 0 {
		t.Errorf("ProfileBytes() = %d, want > 0", got)
	}
	if c.ProfileEntries() == 0 {
		t.Error("ProfileEntries() = 0 with cache enabled")
	}

	// Cached scores must equal the profile-less run.
	raw, err := Compile(f, lib, a, b)
	if err != nil {
		t.Fatal(err)
	}
	for fi := range c.Features {
		for _, p := range []table.Pair{{A: 0, B: 0}, {A: 0, B: 1}, {A: 1, B: 0}, {A: 1, B: 1}} {
			if want, got := raw.ComputeFeature(fi, p), c.ComputeFeature(fi, p); got != want {
				t.Fatalf("feature %d pair %v: cached %v != raw %v", fi, p, got, want)
			}
		}
	}
}

// TestReleaseRecords: releasing tombstoned records clears their slot in
// every profile set — shared encoded sets, unshared map sets — and
// drops the cached token streams, without disturbing any live record's
// profile. Live pairs keep scoring exactly as raw strings do, through a
// dictionary rebuild and a newly bound feature, both of which read the
// released records as "".
func TestReleaseRecords(t *testing.T) {
	lib := sim.Standard()
	a := table.MustNew("A", []string{"name"})
	b := table.MustNew("B", []string{"name"})
	for i, v := range []string{"sony vaio laptop", "dell inspiron", "apple macbook pro"} {
		a.Append(fmt.Sprintf("a%d", i), v)
	}
	for i, v := range []string{"sony laptop", "lenovo thinkpad", "apple macbook"} {
		b.Append(fmt.Sprintf("b%d", i), v)
	}
	var f rule.Function
	r := rule.Rule{Name: "r1"}
	for _, s := range []string{"jaccard", "dice", "cosine", "soundex", "monge_elkan"} {
		r.Preds = append(r.Preds, rule.Predicate{
			Feature:   rule.Feature{Sim: s, AttrA: "name", AttrB: "name"},
			Op:        rule.Ge,
			Threshold: 0.1,
		})
	}
	f.Rules = append(f.Rules, r)
	c, err := Compile(f, lib, a, b)
	if err != nil {
		t.Fatal(err)
	}
	c.EnableProfileCache()
	if len(c.streams) == 0 {
		t.Fatal("fixture caches no token stream")
	}
	entries, bytes := c.ProfileEntries(), c.ProfileBytes()

	if _, err := a.DeleteRecord("a1"); err != nil {
		t.Fatal(err)
	}
	if _, err := b.DeleteRecord("b1"); err != nil {
		t.Fatal(err)
	}
	c.ReleaseRecords(0, a.ReleaseTombstones())
	c.ReleaseRecords(1, b.ReleaseTombstones())
	for fi, fp := range c.profiles {
		for side := range fp.side {
			for i, p := range fp.side[side] {
				if (p == nil) != (i == 1) {
					t.Fatalf("feature %d side %d record %d: profile %v after releasing record 1", fi, side, i, p)
				}
			}
		}
	}
	if len(c.streams) != 0 {
		t.Fatalf("%d token streams survived the release", len(c.streams))
	}
	if got, want := c.ProfileEntries(), entries-2*len(c.Features); got != want {
		t.Fatalf("ProfileEntries %d after release, want %d", got, want)
	}
	if got := c.ProfileBytes(); got >= bytes {
		t.Fatalf("ProfileBytes %d after release, want below %d", got, bytes)
	}

	live := []table.Pair{{A: 0, B: 0}, {A: 0, B: 2}, {A: 2, B: 0}, {A: 2, B: 2}}
	assertRaw := func(when string) {
		t.Helper()
		raw, err := Compile(c.Function(), lib, a, b)
		if err != nil {
			t.Fatal(err)
		}
		for fi := range c.Features {
			rfi, err := raw.BindFeature(c.Features[fi].Feature)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range live {
				if got, want := c.ComputeFeature(fi, p), raw.ComputeFeature(rfi, p); got != want {
					t.Fatalf("%s: feature %s pair %v: cached %v != raw %v", when, c.Features[fi].Key, p, got, want)
				}
			}
		}
	}
	assertRaw("after release")

	// Unseen tokens rebuild the whitespace dictionary over the full
	// columns; the released records come back as empty profiles.
	b.Append("b3", "zebulon quixote")
	c.ExtendRecords()
	live = append(live, table.Pair{A: 0, B: 3})
	assertRaw("after a rebuilding append")

	// A feature bound after the release profiles every record too.
	if _, err := c.BindFeature(rule.Feature{Sim: "trigram", AttrA: "name", AttrB: "name"}); err != nil {
		t.Fatal(err)
	}
	assertRaw("after binding a new feature")
}
