package sim

import (
	"testing"
	"testing/quick"
)

// profiledFuncs returns every standard similarity that implements
// Profiler, ready to compare against its string path.
func profiledFuncs(t *testing.T) []Profiler {
	t.Helper()
	corpus := buildCorpus("sony vaio laptop", "dell inspiron laptop", "the quick brown fox", "a b c d")
	candidates := []Func{
		Jaccard{Label: "jaccard"},
		Jaccard{Tok: QGram{Q: 3}, Label: "jaccard_3gram"},
		Dice{Label: "dice"},
		Overlap{Label: "overlap"},
		Cosine{Label: "cosine"},
		Trigram{},
		Soundex{},
		MongeElkan{},
		TFIDF{Corpus: corpus},
		SoftTFIDF{Corpus: corpus},
	}
	out := make([]Profiler, 0, len(candidates))
	for _, f := range candidates {
		pr, ok := f.(Profiler)
		if !ok {
			t.Fatalf("%s does not implement Profiler", f.Name())
		}
		out = append(out, pr)
	}
	return out
}

// cachedProfiles profiles vals the way the profile cache profiles one
// column pair: a DictProfiler through one token stream over all of
// them, a ValueProfiler one value at a time.
func cachedProfiles(t *testing.T, f Profiler, vals ...string) []any {
	t.Helper()
	switch f := f.(type) {
	case DictProfiler:
		_, profs := encodeStream(t, f, vals...)
		return profs
	case ValueProfiler:
		profs := make([]any, len(vals))
		for i, v := range vals {
			profs[i] = f.Profile(v)
		}
		return profs
	}
	t.Fatalf("%s profiles neither through a dictionary nor per value", f.Name())
	return nil
}

// Property: SimProfiles over the cached profiles of a and b ==
// Sim(a, b), exactly, for every profiled similarity.
func TestQuickProfileEquivalence(t *testing.T) {
	funcs := profiledFuncs(t)
	prop := func(a, b string) bool {
		for _, f := range funcs {
			want := f.Sim(a, b)
			profs := cachedProfiles(t, f, a, b)
			if got := f.SimProfiles(profs[0], profs[1]); !sameBits(got, want) {
				t.Logf("%s(%q,%q): profile %v, direct %v", f.Name(), a, b, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func TestProfileEquivalenceOnRealisticInputs(t *testing.T) {
	funcs := profiledFuncs(t)
	inputs := []struct{ a, b string }{
		{"sony vaio laptop", "sony vayo laptop"},
		{"the quick brown fox", "quick fox"},
		{"", ""},
		{"", "a b"},
		{"a b c", "c b a"},
		{"SD-4816K", "sd 4816 k"},
		{"robert smith", "rupert smyth"},
	}
	for _, f := range funcs {
		for _, in := range inputs {
			want := f.Sim(in.a, in.b)
			profs := cachedProfiles(t, f, in.a, in.b)
			if got := f.SimProfiles(profs[0], profs[1]); !sameBits(got, want) {
				t.Errorf("%s(%q,%q): profile %v, direct %v", f.Name(), in.a, in.b, got, want)
			}
		}
	}
}

// Profiles are reusable: comparing the same profile against many
// counterparts must not mutate it.
func TestProfilesAreReusable(t *testing.T) {
	vals := []string{"sony vaio laptop", "sony laptop", "dell inspiron", "", "sony vaio laptop"}
	for _, f := range profiledFuncs(t) {
		profs := cachedProfiles(t, f, vals...)
		pa := profs[0]
		first := f.SimProfiles(pa, profs[1])
		for _, other := range profs[2:] {
			f.SimProfiles(pa, other)
		}
		if again := f.SimProfiles(pa, profs[1]); !sameBits(again, first) {
			t.Errorf("%s: profile mutated by reuse (%v vs %v)", f.Name(), first, again)
		}
	}
}
