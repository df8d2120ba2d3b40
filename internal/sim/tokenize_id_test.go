package sim

import (
	"math"
	"testing"
)

// tokenCorpus stresses the lowercase/classify edge cases shared by the
// string tokenizers and the ID emitters: Turkish dotted I (U+0130
// lowercases to plain i under Go's simple mapping), dotless i (U+0131,
// uppercases back INTO ASCII I for Soundex), ligatures (U+FB01/FB02
// stay themselves under simple lowering), long s (U+017F uppercases to
// S), titlecase digraphs, combining marks (separators), NBSP,
// multi-byte scripts, invalid UTF-8, sentinel bytes, and empty or
// whitespace-only values.
var tokenCorpus = []string{
	"",
	" ",
	"   \t\n  ",
	"  ",
	"a",
	"A",
	"Hello, World!",
	"ABC-def_123",
	"İstanbul ŞİŞLİ",
	"ı I İ i",
	"ﬁle ﬂow ﬃ",
	"ſtraße STRASSE",
	"ǅungla ǄUNGLA ǆungla",
	"résumé CAFÉ",
	"étude",
	"日本 語 中文",
	"ΑΒΓ αβγ",
	"МОСКВА москва",
	"\xff\xfe broken \xc3(",
	"\x01\x01ab\x01",
	"pneumonia pnuemonia",
	"robert rupert rubin",
	"washington w2shington",
	"12 345 6,78",
	"q",
	"qu",
	"quí",
	"ﬀ",
}

// tokenizersUnderTest pairs each string tokenizer with its emitter.
var tokenizersUnderTest = []Tokenizer{
	Whitespace{},
	QGram{Q: 2},
	QGram{Q: 3},
	QGram{Q: 3, Pad: true},
	QGram{Q: 2, Pad: true},
	QGram{Q: 4, Pad: true},
	QGram{}, // Q<=0 defaults to 3
}

// emitTokens runs the emitter over s through a fresh builder and
// resolves the emitted IDs back to token strings.
func emitTokens(t *testing.T, em IDEmitter, s string) []string {
	t.Helper()
	sb := NewStreamBuilder(em)
	sb.AddValue(s)
	ts := sb.Seal()
	rec := ts.Record(0)
	out := make([]string, len(rec))
	for i, id := range rec {
		out[i] = ts.Dict.Token(id)
	}
	return out
}

func assertTokensEqual(t *testing.T, label string, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d tokens, want %d\ngot  %q\nwant %q", label, len(got), len(want), got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: token %d = %q, want %q\ngot  %q\nwant %q", label, i, got[i], want[i], got, want)
		}
	}
}

// TestEmitterParity proves each ID emitter reproduces its string
// tokenizer token for token (order and multiplicity included) on the
// edge-case corpus.
func TestEmitterParity(t *testing.T) {
	for _, tok := range tokenizersUnderTest {
		em, ok := emitterForTokenizer(tok)
		if !ok {
			t.Fatalf("no emitter for tokenizer %s", tok.Name())
		}
		for _, s := range tokenCorpus {
			assertTokensEqual(t, tok.Name()+" "+s, emitTokens(t, em, s), tok.Tokens(s))
		}
	}
	// Soundex emits phonetic codes; soundexCodes is the string reference.
	em, ok := EmitterFor(Soundex{})
	if !ok {
		t.Fatal("no emitter for Soundex")
	}
	for _, s := range tokenCorpus {
		assertTokensEqual(t, "soundex "+s, emitTokens(t, em, s), soundexCodes(s))
	}
}

// TestEmitterSealedDict checks the sealed-dictionary sink: emitting a
// covered value yields rank IDs directly, and an uncovered token
// reports ok=false instead of a bogus ID.
func TestEmitterSealedDict(t *testing.T) {
	em, _ := emitterForTokenizer(Whitespace{})
	sb := NewStreamBuilder(em)
	sb.AddValue("red apple")
	sb.AddValue("green apple")
	ts := sb.Seal()
	var sc TokScratch
	ids, ok := em.AppendTokenIDs(nil, "Apple RED", ts.Dict, &sc)
	if !ok {
		t.Fatal("covered value rejected by sealed dict")
	}
	want := []string{"apple", "red"}
	if len(ids) != len(want) {
		t.Fatalf("got %d ids, want %d", len(ids), len(want))
	}
	for i, id := range ids {
		if ts.Dict.Token(id) != want[i] {
			t.Fatalf("id %d resolves to %q, want %q", i, ts.Dict.Token(id), want[i])
		}
	}
	if _, ok := em.AppendTokenIDs(nil, "banana", ts.Dict, &sc); ok {
		t.Fatal("uncovered token accepted by sealed dict")
	}
}

// streamProfilers is every DictProfiler kind the stream path encodes.
func streamProfilers(corpus *Corpus) []DictProfiler {
	return []DictProfiler{
		Jaccard{},
		Dice{},
		Overlap{},
		Jaccard{Tok: QGram{Q: 2}},
		Trigram{},
		Cosine{},
		Cosine{Tok: QGram{Q: 3, Pad: true}},
		TFIDF{Corpus: corpus},
		SoftTFIDF{Corpus: corpus},
		Soundex{},
	}
}

// profileEqual compares two encoded profiles bit for bit.
func profileEqual(a, b any) bool {
	switch pa := a.(type) {
	case *setProfile:
		pb, ok := b.(*setProfile)
		if !ok || len(pa.ids) != len(pb.ids) {
			return false
		}
		for i := range pa.ids {
			if pa.ids[i] != pb.ids[i] {
				return false
			}
		}
		return true
	case *countProfile:
		pb, ok := b.(*countProfile)
		if !ok || len(pa.ids) != len(pb.ids) || math.Float64bits(pa.norm) != math.Float64bits(pb.norm) {
			return false
		}
		for i := range pa.ids {
			if pa.ids[i] != pb.ids[i] || math.Float64bits(pa.counts[i]) != math.Float64bits(pb.counts[i]) {
				return false
			}
		}
		return true
	case *weightProfile:
		pb, ok := b.(*weightProfile)
		if !ok || len(pa.ids) != len(pb.ids) {
			return false
		}
		for i := range pa.ids {
			if pa.ids[i] != pb.ids[i] || math.Float64bits(pa.w[i]) != math.Float64bits(pb.w[i]) {
				return false
			}
		}
		return true
	}
	return false
}

// TestProfilesFromStreamParity proves the two encoders agree: for every
// encodable kind, each value's ProfileFromIDs profile (the streaming
// append path, emitted against the sealed dictionary) equals its slab
// profile from ProfilesFromStream — same IDs, same counts, same weight
// bits — and scores against every slab profile exactly like Sim on the
// raw strings.
func TestProfilesFromStreamParity(t *testing.T) {
	values := append([]string(nil), tokenCorpus...)
	values = append(values, "red apple pie", "green apple", "apple apple apple pie")
	corpus := NewCorpus(nil)
	corpus.AddAll(values)

	for _, dp := range streamProfilers(corpus) {
		ts, slab := encodeStream(t, dp, values...)
		for i, v := range values {
			p := encodeAlone(t, dp, ts.Dict, v)
			if !profileEqual(slab[i], p) {
				t.Fatalf("%s: append profile %d (%q) differs\nslab   %#v\nappend %#v", dp.Name(), i, v, slab[i], p)
			}
			for j, w := range values {
				want := dp.Sim(v, w)
				if got := dp.SimProfiles(p, slab[j]); !sameBits(got, want) {
					t.Fatalf("%s(%q,%q): append profile scores %v, Sim %v", dp.Name(), v, w, got, want)
				}
				if got := dp.SimProfiles(slab[i], slab[j]); !sameBits(got, want) {
					t.Fatalf("%s(%q,%q): slab profile scores %v, Sim %v", dp.Name(), v, w, got, want)
				}
			}
		}
	}
}

// soundexCodes is the string reference of Soundex's emitter: the code
// of each whitespace token, in token order.
func soundexCodes(s string) []string {
	toks := Whitespace{}.Tokens(s)
	codes := make([]string, len(toks))
	for i, t := range toks {
		codes[i] = SoundexCode(t)
	}
	return codes
}

// FuzzEmitterParity is the differential property test behind the CI
// fuzz-seed run: on any input string, every emitter must reproduce its
// string tokenizer token for token.
func FuzzEmitterParity(f *testing.F) {
	for _, s := range tokenCorpus {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		for _, tok := range tokenizersUnderTest {
			em, ok := emitterForTokenizer(tok)
			if !ok {
				t.Fatalf("no emitter for %s", tok.Name())
			}
			got := emitTokens(t, em, s)
			want := tok.Tokens(s)
			if len(got) != len(want) {
				t.Fatalf("%s(%q): %d tokens, want %d", tok.Name(), s, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s(%q): token %d = %q, want %q", tok.Name(), s, i, got[i], want[i])
				}
			}
		}
		em, _ := EmitterFor(Soundex{})
		got := emitTokens(t, em, s)
		want := soundexCodes(s)
		if len(got) != len(want) {
			t.Fatalf("soundex(%q): %d codes, want %d", s, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("soundex(%q): code %d = %q, want %q", s, i, got[i], want[i])
			}
		}
	})
}
