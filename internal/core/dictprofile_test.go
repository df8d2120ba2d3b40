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

// TestDictProfileSharing binds every standard similarity on name×name
// and pins the form each one caches: a DictProfiler holds encoded
// profiles over a dictionary, monge_elkan value profiles, and every
// other similarity none. A DictProfiler that stopped encoding would
// still score correctly, from raw strings, only slower; this is the
// test that notices. It also pins the two sharing levels — features
// with the same profile kind over the same columns alias one profile
// set, and features drawing from the same token space share one
// dictionary across kinds — and that every score equals the
// profile-less raw Fn.Sim.
func TestDictProfileSharing(t *testing.T) {
	lib := sim.Standard()
	a := table.MustNew("A", []string{"name"})
	b := table.MustNew("B", []string{"name"})
	a.Append("a0", "sony vaio laptop")
	a.Append("a1", "dell inspiron 15")
	b.Append("b0", "sony laptop")
	b.Append("b1", "apple macbook 15")

	var f rule.Function
	for _, s := range lib.Names() {
		// One rule per similarity: a rule may bound each feature once.
		f.Rules = append(f.Rules, rule.Rule{Name: s, Preds: []rule.Predicate{{
			Feature:   rule.Feature{Sim: s, AttrA: "name", AttrB: "name"},
			Op:        rule.Ge,
			Threshold: 0.1,
		}}})
	}

	c, err := Compile(f, lib, a, b)
	if err != nil {
		t.Fatal(err)
	}
	c.EnableProfileCache()
	if len(c.groups) != 0 || c.ProfileEntries() != 0 {
		t.Fatalf("EnableProfileCache built %d share groups before any compute", len(c.groups))
	}
	c.BindRuleProfiles()

	for _, s := range lib.Names() {
		fi := c.FeatureIndex(s + "(name,name)")
		if fi < 0 {
			t.Fatalf("feature %s(name,name) not bound", s)
		}
		fp := c.profiles[fi].Load()
		if fp == nil {
			t.Fatalf("%s: BindRuleProfiles left the feature unbound", s)
		}
		switch c.Features[fi].Fn.(type) {
		case sim.DictProfiler:
			if fp.g == nil || c.dicts[fp.g.dictKey] == nil {
				t.Errorf("%s: want encoded profiles over a dictionary, got %+v", s, fp)
			}
		case sim.ValueProfiler:
			if fp.g == nil || fp.g.dictKey != "" {
				t.Errorf("%s: want value profiles of its own, got %+v", s, fp)
			}
		default:
			if fp.g != nil {
				t.Errorf("%s: unprofiled similarity caches profiles", s)
			}
		}
	}
	if mi := c.FeatureIndex("monge_elkan(name,name)"); c.profiles[mi].Load().g == nil {
		t.Error("monge_elkan caches no value profiles")
	}

	// Token spaces: whitespace words (jaccard/dice/overlap/cosine/
	// tf_idf/soft_tf_idf), 3-grams (jaccard_3gram), padded 3-grams
	// (trigram) and soundex codes — four dictionaries.
	if len(c.dicts) != 4 {
		t.Errorf("got %d dictionaries, want 4 (ws, 3gram, 3gramp, sdx)", len(c.dicts))
	}
	// Profile kinds: set|ws (jaccard=dice=overlap), count|ws (cosine),
	// tfidf|ws (tf_idf=soft_tf_idf), set|3gram, set|3gramp and set|sdx
	// — six encoded sets — plus monge_elkan's value profiles.
	if len(c.groups) != 7 {
		t.Errorf("got %d share groups, want 7", len(c.groups))
	}
	// Same-kind features must read one group, not copies.
	jp, dp := c.profiles[c.FeatureIndex("jaccard(name,name)")].Load(), c.profiles[c.FeatureIndex("dice(name,name)")].Load()
	if jp.g != dp.g {
		t.Error("jaccard and dice do not share their encoded profile set")
	}
	if tp := c.profiles[c.FeatureIndex("tf_idf(name,name)")].Load(); tp.g == jp.g || tp.g.dictKey != jp.g.dictKey {
		t.Error("jaccard and tf_idf do not share a dictionary across two profile sets")
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
				t.Fatalf("%s pair %v: cached %v != raw %v", c.Features[fi].Key, p, got, want)
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
	c.BindRuleProfiles()
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
	for key, g := range c.groups {
		for side := range g.side {
			for i, p := range g.side[side] {
				if (p == nil) != (i == 1) {
					t.Fatalf("group %s side %d record %d: profile %v after releasing record 1", key, side, i, p)
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
