package sim

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// buildDict builds a sealed dictionary covering the DictTokens of every
// given string.
func buildDict(dp DictProfiler, vals ...string) *Dict {
	b := NewDictBuilder()
	for _, v := range vals {
		b.Add(dp.DictTokens(v))
	}
	return b.Build()
}

func TestDictRankOrder(t *testing.T) {
	b := NewDictBuilder()
	b.Add([]string{"pear", "apple", "fig", "apple"})
	b.Add([]string{"banana", "fig"})
	d := b.Build()
	if d.Len() != 4 {
		t.Fatalf("Len = %d, want 4", d.Len())
	}
	want := []string{"apple", "banana", "fig", "pear"}
	for i, tok := range want {
		id, ok := d.ID(tok)
		if !ok || id != uint32(i) {
			t.Errorf("ID(%q) = %d,%v, want %d (lexicographic rank)", tok, id, ok, i)
		}
		if d.Token(uint32(i)) != tok {
			t.Errorf("Token(%d) = %q, want %q", i, d.Token(uint32(i)), tok)
		}
	}
	if _, ok := d.ID("quince"); ok {
		t.Error("ID of absent token reported present")
	}
	if d.Bytes() <= 0 {
		t.Error("Bytes() not positive")
	}
}

// randomCorpusStrings draws product-ish ASCII strings and messy unicode
// strings from a seeded source — the corpora the property tests run on.
func randomCorpusStrings(rng *rand.Rand, n int) []string {
	words := []string{
		"sony", "vaio", "laptop", "dell", "SD-4816K", "4816", "drive",
		"the", "quick", "brown", "fox", "", "a", "b",
		"café", "naïve", "東京", "ラップトップ", "résumé", "🙂x", "Ωmega",
	}
	out := make([]string, n)
	for i := range out {
		k := rng.Intn(5)
		s := ""
		for w := 0; w < k; w++ {
			if w > 0 {
				s += " "
			}
			s += words[rng.Intn(len(words))]
		}
		out[i] = s
	}
	return out
}

// TestProfilerEquivalenceAllRegistered is the single table-driven
// property test over every registered similarity: for each function in
// the standard library that implements Profiler,
// SimProfiles(Profile(a), Profile(b)) == Sim(a, b) bit for bit — and
// for DictProfilers the dictionary-encoded profiles must score
// identically too — over random unicode and ASCII corpora.
func TestProfilerEquivalenceAllRegistered(t *testing.T) {
	lib := Standard()
	rng := rand.New(rand.NewSource(7))
	vals := randomCorpusStrings(rng, 60)
	corpus := NewCorpus(nil)
	corpus.AddAll(vals)

	for _, name := range lib.Names() {
		needs, err := lib.NeedsCorpus(name)
		if err != nil {
			t.Fatal(err)
		}
		var cp *Corpus
		if needs {
			cp = corpus
		}
		fn, err := lib.Build(name, cp)
		if err != nil {
			t.Fatal(err)
		}
		pr, ok := fn.(Profiler)
		if !ok {
			continue
		}
		t.Run(name, func(t *testing.T) {
			dp, hasDict := fn.(DictProfiler)
			var d *Dict
			if hasDict {
				b := NewDictBuilder()
				for _, v := range vals {
					b.Add(dp.DictTokens(v))
				}
				d = b.Build()
			}
			for trial := 0; trial < 400; trial++ {
				a := vals[rng.Intn(len(vals))]
				bs := vals[rng.Intn(len(vals))]
				want := pr.Sim(a, bs)
				if got := pr.SimProfiles(pr.Profile(a), pr.Profile(bs)); got != want {
					t.Fatalf("%s(%q,%q): map profile %v, direct %v", name, a, bs, got, want)
				}
				if hasDict {
					got := dp.SimProfiles(dp.ProfileDict(a, d), dp.ProfileDict(bs, d))
					if got != want {
						t.Fatalf("%s(%q,%q): encoded profile %v, direct %v", name, a, bs, got, want)
					}
				}
			}
		})
	}
}

// TestQuickEncodedProfileEquivalence hammers the encoded kernels with
// arbitrary unicode strings from testing/quick: encoded scores must
// equal the direct string path bit for bit, including the empty and
// all-identical corners quick likes to generate.
func TestQuickEncodedProfileEquivalence(t *testing.T) {
	corpus := buildCorpus("sony vaio laptop", "dell inspiron laptop", "the quick brown fox", "a b c d")
	funcs := []DictProfiler{
		Jaccard{Label: "jaccard"},
		Jaccard{Tok: QGram{Q: 3}, Label: "jaccard_3gram"},
		Dice{Label: "dice"},
		Overlap{Label: "overlap"},
		Cosine{Label: "cosine"},
		Trigram{},
		Soundex{},
		TFIDF{Corpus: corpus},
		SoftTFIDF{Corpus: corpus},
	}
	prop := func(a, b string) bool {
		for _, f := range funcs {
			want := f.Sim(a, b)
			d := buildDict(f, a, b)
			got := f.SimProfiles(f.ProfileDict(a, d), f.ProfileDict(b, d))
			if got != want {
				t.Logf("%s(%q,%q): encoded %v, direct %v", f.Name(), a, b, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestIntersectKernels checks the merge and galloping intersection (and
// the dot product) against a map reference over adversarial size skews,
// including the disjoint-range early exit.
func TestIntersectKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	randSorted := func(n, universe int) []uint32 {
		set := map[uint32]struct{}{}
		for len(set) < n {
			set[uint32(rng.Intn(universe))] = struct{}{}
		}
		out := make([]uint32, 0, n)
		for v := range set {
			out = append(out, v)
		}
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		return out
	}
	for trial := 0; trial < 200; trial++ {
		na, nb := rng.Intn(40), rng.Intn(40)
		if trial%3 == 0 {
			nb = nb * 20 // force the galloping path
		}
		// The universe must comfortably exceed the draw sizes or randSorted
		// cannot collect enough distinct IDs.
		universe := na + nb + 50 + rng.Intn(2000)
		a, b := randSorted(na, universe), randSorted(nb, universe)
		want := 0
		inB := map[uint32]struct{}{}
		for _, v := range b {
			inB[v] = struct{}{}
		}
		for _, v := range a {
			if _, ok := inB[v]; ok {
				want++
			}
		}
		if got := intersectCount(a, b); got != want {
			t.Fatalf("trial %d: intersectCount(|%d|,|%d|) = %d, want %d", trial, na, nb, got, want)
		}
		if got := intersectCount(b, a); got != want {
			t.Fatalf("trial %d: intersectCount not symmetric", trial)
		}
		// Dot product with weight 1 per element counts the intersection.
		ones := func(n int) []float64 {
			w := make([]float64, n)
			for i := range w {
				w[i] = 1
			}
			return w
		}
		if got := dotSorted(a, ones(len(a)), b, ones(len(b))); got != float64(want) {
			t.Fatalf("trial %d: dotSorted = %v, want %v", trial, got, want)
		}
	}
	// Disjoint ranges short-circuit to zero.
	if got := intersectCount([]uint32{1, 2, 3}, []uint32{10, 11}); got != 0 {
		t.Fatalf("disjoint ranges: got %d", got)
	}
}

func TestGallopSearch(t *testing.T) {
	s := []uint32{2, 4, 4, 8, 16, 32, 64, 100}
	for _, tc := range []struct {
		start int
		x     uint32
		want  int
	}{
		{0, 1, 0}, {0, 2, 0}, {0, 5, 3}, {2, 4, 2}, {3, 200, 8}, {5, 64, 6},
	} {
		if got := gallopSearch(s, tc.start, tc.x); got != tc.want {
			t.Errorf("gallopSearch(start=%d, x=%d) = %d, want %d", tc.start, tc.x, got, tc.want)
		}
	}
}

func TestProfileBytesMeasurable(t *testing.T) {
	corpus := buildCorpus("sony vaio laptop", "dell laptop")
	val := "sony vaio laptop"
	for _, f := range []DictProfiler{
		Jaccard{Label: "jaccard"}, Cosine{Label: "cosine"}, TFIDF{Corpus: corpus}, Soundex{},
	} {
		d := buildDict(f, val)
		if got := ProfileBytes(f.ProfileDict(val, d)); got <= 0 {
			t.Errorf("%s: encoded ProfileBytes = %d, want > 0", f.Name(), got)
		}
		if got := ProfileBytes(f.Profile(val)); got <= 0 {
			t.Errorf("%s: map ProfileBytes = %d, want > 0", f.Name(), got)
		}
	}
	if ProfileBytes(nil) != 0 {
		t.Error("ProfileBytes(nil) != 0")
	}
	if ProfileBytes(MongeElkan{}.Profile("a b")) <= 0 {
		t.Error("ProfileBytes([]string) not positive")
	}
}

// Encoded profiles must be reusable and safe to compare repeatedly.
func TestEncodedProfilesAreReusable(t *testing.T) {
	corpus := buildCorpus("sony vaio laptop", "dell inspiron laptop")
	funcs := []DictProfiler{
		Jaccard{Label: "jaccard"}, Dice{Label: "dice"}, Overlap{Label: "overlap"},
		Cosine{Label: "cosine"}, Trigram{}, Soundex{},
		TFIDF{Corpus: corpus}, SoftTFIDF{Corpus: corpus},
	}
	vals := []string{"sony vaio laptop", "sony laptop", "dell inspiron", "", "laptop"}
	for _, f := range funcs {
		d := buildDict(f, vals...)
		pa := f.ProfileDict(vals[0], d)
		first := f.SimProfiles(pa, f.ProfileDict(vals[1], d))
		for _, other := range vals {
			f.SimProfiles(pa, f.ProfileDict(other, d))
		}
		if again := f.SimProfiles(pa, f.ProfileDict(vals[1], d)); again != first {
			t.Errorf("%s: encoded profile mutated by reuse (%v vs %v)", f.Name(), first, again)
		}
	}
}

func ExampleDictBuilder() {
	b := NewDictBuilder()
	b.Add([]string{"sony", "vaio", "laptop"})
	b.Add([]string{"dell", "laptop"})
	d := b.Build()
	id, _ := d.ID("laptop")
	fmt.Println(d.Len(), id, d.Token(id))
	// Output: 4 1 laptop
}
