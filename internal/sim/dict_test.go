package sim

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"unsafe"
)

// encodeStream encodes the profiles of vals, of dp's kind, the way the
// profile cache builds a column pair's: one StreamBuilder pass, one
// seal, one slab encode. The sealed stream comes back too, so callers
// can encode more values against its dictionary.
func encodeStream(t testing.TB, dp DictProfiler, vals ...string) (*TokenStream, []any) {
	t.Helper()
	em, ok := EmitterFor(dp)
	if !ok {
		t.Fatalf("%s has no ID emitter", dp.Name())
	}
	sb := NewStreamBuilder(em)
	for _, v := range vals {
		sb.AddValue(v)
	}
	ts := sb.Seal()
	return ts, ProfilesFromStream(dp, ts)
}

// encodeAlone encodes v's profile of dp's kind on its own, the way the
// profile cache encodes an appended record: emit against the sealed d,
// then ProfileFromIDs.
func encodeAlone(t testing.TB, dp DictProfiler, d *Dict, v string) any {
	t.Helper()
	em, _ := EmitterFor(dp)
	var sc TokScratch
	ids, ok := em.AppendTokenIDs(nil, v, d, &sc)
	if !ok {
		t.Fatalf("%s: dictionary does not cover %q", dp.Name(), v)
	}
	return ProfileFromIDs(dp, d, ids)
}

// sameBits reports whether two scores are bit-identical.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func TestDictRankOrder(t *testing.T) {
	em, _ := EmitterFor(Jaccard{})
	sb := NewStreamBuilder(em)
	sb.AddValue("pear apple fig apple")
	sb.AddValue("banana fig")
	ts := sb.Seal()
	d := ts.Dict
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
	// Sealing remaps the stream's provisional IDs to the ranks.
	if got := fmt.Sprint(ts.Record(0), ts.Record(1)); got != "[3 0 2 0] [1 2]" {
		t.Errorf("sealed stream = %s, want [3 0 2 0] [1 2]", got)
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
// property test over every registered similarity that implements
// Profiler: over all cross pairs of a random unicode and ASCII corpus,
// its cached profiles must score bit for bit like Sim on the raw
// strings. A DictProfiler's profiles are checked twice, as the stream
// builds them (one slab encode over the corpus) and as an append
// encodes them (ProfileFromIDs, one value at a time), alone and mixed
// with slab profiles; Monge-Elkan's come from Profile.
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
			var profs, alone []any
			switch pr := pr.(type) {
			case DictProfiler:
				var ts *TokenStream
				ts, profs = encodeStream(t, pr, vals...)
				for _, v := range vals {
					alone = append(alone, encodeAlone(t, pr, ts.Dict, v))
				}
			case ValueProfiler:
				for _, v := range vals {
					profs = append(profs, pr.Profile(v))
				}
				alone = profs
			default:
				t.Fatalf("%s profiles neither through a dictionary nor per value", name)
			}
			for i, a := range vals {
				for j, b := range vals {
					want := pr.Sim(a, b)
					for _, got := range []float64{
						pr.SimProfiles(profs[i], profs[j]),
						pr.SimProfiles(alone[i], alone[j]),
						pr.SimProfiles(alone[i], profs[j]),
					} {
						if !sameBits(got, want) {
							t.Fatalf("%s(%q,%q): profiles score %v, Sim %v", name, a, b, got, want)
						}
					}
				}
			}
		})
	}
}

// TestQuickEncodedProfileEquivalence hammers the encoded kernels with
// arbitrary unicode strings from testing/quick: over a dictionary built
// from a and b, the slab-encoded and the ProfileFromIDs-encoded
// profiles must both score like the direct string path bit for bit,
// including the empty and all-identical corners quick likes to
// generate.
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
			ts, profs := encodeStream(t, f, a, b)
			pa, pb := encodeAlone(t, f, ts.Dict, a), encodeAlone(t, f, ts.Dict, b)
			for _, got := range []float64{f.SimProfiles(profs[0], profs[1]), f.SimProfiles(pa, pb)} {
				if !sameBits(got, want) {
					t.Logf("%s(%q,%q): encoded %v, direct %v", f.Name(), a, b, got, want)
					return false
				}
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

// TestProfileBytesMeasurable pins ProfileBytes to the real footprint of
// one profile of each kind: its struct, as unsafe.Sizeof measures it,
// plus 4 bytes per ID and 8 per count or weight. Slab-encoded and
// appended profiles are charged alike.
func TestProfileBytesMeasurable(t *testing.T) {
	corpus := buildCorpus("sony vaio laptop", "dell laptop")
	val := "sony vaio laptop sony" // three distinct tokens
	for _, tc := range []struct {
		f    DictProfiler
		want int
	}{
		{Jaccard{Label: "jaccard"}, int(unsafe.Sizeof(setProfile{})) + 3*4},
		{Soundex{}, int(unsafe.Sizeof(setProfile{})) + 3*4},
		{Cosine{Label: "cosine"}, int(unsafe.Sizeof(countProfile{})) + 3*(4+8)},
		{TFIDF{Corpus: corpus}, int(unsafe.Sizeof(weightProfile{})) + 3*(4+8)},
	} {
		ts, profs := encodeStream(t, tc.f, val)
		if got := ProfileBytes(profs[0]); got != tc.want {
			t.Errorf("%s: slab ProfileBytes = %d, want %d", tc.f.Name(), got, tc.want)
		}
		if got := ProfileBytes(encodeAlone(t, tc.f, ts.Dict, val)); got != tc.want {
			t.Errorf("%s: appended ProfileBytes = %d, want %d", tc.f.Name(), got, tc.want)
		}
	}
	if ProfileBytes(nil) != 0 {
		t.Error("ProfileBytes(nil) != 0")
	}
	// A []string: its boxed slice header, then a header and the bytes
	// of each string.
	if got, want := ProfileBytes(MongeElkan{}.Profile("a bc")), 24+(16+1)+(16+2); got != want {
		t.Errorf("ProfileBytes([]string) = %d, want %d", got, want)
	}
}

// TestEncodedProfilesAreReusable: comparing a profile against many
// counterparts must not mutate it, and a stream encoded once must
// encode to the same profiles again — kinds only consume each record's
// token multiset, so the in-place sort of the first encode changes
// nothing for the next kind over a shared stream.
func TestEncodedProfilesAreReusable(t *testing.T) {
	corpus := buildCorpus("sony vaio laptop", "dell inspiron laptop")
	funcs := []DictProfiler{
		Jaccard{Label: "jaccard"}, Dice{Label: "dice"}, Overlap{Label: "overlap"},
		Cosine{Label: "cosine"}, Trigram{}, Soundex{},
		TFIDF{Corpus: corpus}, SoftTFIDF{Corpus: corpus},
	}
	vals := []string{"sony vaio laptop", "sony laptop", "dell inspiron", "", "laptop laptop sony"}
	for _, f := range funcs {
		ts, profs := encodeStream(t, f, vals...)
		pa := profs[0]
		first := f.SimProfiles(pa, profs[1])
		for _, other := range profs {
			f.SimProfiles(pa, other)
			f.SimProfiles(other, pa)
		}
		if again := f.SimProfiles(pa, profs[1]); !sameBits(again, first) {
			t.Errorf("%s: encoded profile mutated by reuse (%v vs %v)", f.Name(), first, again)
		}
		// The first encode sorted the stream's records in place; encoding
		// them again reproduces every profile.
		for i, p := range ProfilesFromStream(f, ts) {
			if !profileEqual(p, profs[i]) {
				t.Errorf("%s: re-encoding the shared stream changed profile %d (%q)", f.Name(), i, vals[i])
			}
		}
	}
}

// ExampleDictBuilder shows the sealing step of a stream: tokens take
// provisional IDs in order of first sight, and BuildRemap assigns each
// its lexicographic rank.
func ExampleDictBuilder() {
	b := NewDictBuilder()
	for _, tok := range []string{"sony", "vaio", "laptop", "dell", "laptop"} {
		b.TokenID([]byte(tok))
	}
	d, remap := b.BuildRemap()
	id, _ := d.ID("laptop")
	fmt.Println(d.Len(), id, d.Token(id), remap)
	// Output: 4 1 laptop [2 3 1 0]
}
