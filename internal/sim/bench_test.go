package sim

import (
	"fmt"
	"testing"
)

// Representative product-style inputs: short codes and medium titles.
var benchInputs = []struct{ a, b string }{
	{"SD-4816K", "SD-4816X"},
	{"sony white lens VN-5653V", "soqy WN-5653V white lensVN-5653V"},
	{"western digital portable drive WD-1021R", "w. digital drive WD1021R portable new"},
	{"canon eos r5 camera", "nikon z6 camera body"},
}

// BenchmarkSimilarityFunctions times every standard similarity on mixed
// inputs — the per-function μs behind Table 3.
func BenchmarkSimilarityFunctions(b *testing.B) {
	lib := Standard()
	corpus := NewCorpus(nil)
	for _, in := range benchInputs {
		corpus.Add(in.a)
		corpus.Add(in.b)
	}
	for _, name := range lib.Names() {
		needs, err := lib.NeedsCorpus(name)
		if err != nil {
			b.Fatal(err)
		}
		var c *Corpus
		if needs {
			c = corpus
		}
		fn, err := lib.Build(name, c)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				in := benchInputs[i%len(benchInputs)]
				fn.Sim(in.a, in.b)
			}
		})
	}
}

// BenchmarkTokenizers isolates tokenization cost from similarity logic.
func BenchmarkTokenizers(b *testing.B) {
	toks := []Tokenizer{Whitespace{}, QGram{Q: 3}, QGram{Q: 3, Pad: true}}
	for _, tok := range toks {
		b.Run(tok.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				in := benchInputs[i%len(benchInputs)]
				tok.Tokens(in.b)
			}
		})
	}
}

// BenchmarkKernelsProfiles compares each dictionary-encoded kernel on
// prebuilt profiles — the hot loop of a profiled matching run — with
// its raw Sim on the same values. One -bench=Kernels regexp catches the
// whole kernel family (CI runs it with -benchtime=1x as a smoke test).
func BenchmarkKernelsProfiles(b *testing.B) {
	corpus := NewCorpus(nil)
	var vals []string
	for _, in := range benchInputs {
		corpus.Add(in.a)
		corpus.Add(in.b)
		vals = append(vals, in.a, in.b)
	}
	funcs := []DictProfiler{
		Jaccard{Label: "jaccard"}, Dice{Label: "dice"}, Overlap{Label: "overlap"},
		Cosine{Label: "cosine"}, Trigram{}, Soundex{},
		TFIDF{Corpus: corpus}, SoftTFIDF{Corpus: corpus},
	}
	for _, f := range funcs {
		_, profs := encodeStream(b, f, vals...)
		b.Run(f.Name()+"/raw", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				k := 2 * (i % len(benchInputs))
				f.Sim(vals[k], vals[k+1])
			}
		})
		b.Run(f.Name()+"/encoded", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				k := 2 * (i % len(benchInputs))
				f.SimProfiles(profs[k], profs[k+1])
			}
		})
	}
}

// BenchmarkKernelsLevenshtein compares the rolling-row DP against the
// bit-parallel Myers kernels across rune lengths (~25% substitutions).
func BenchmarkKernelsLevenshtein(b *testing.B) {
	pair := func(n int) (string, string) {
		const alpha = "abcdefghijklmnopqrstuvwxyz0123456789"
		x := make([]rune, n)
		y := make([]rune, n)
		for i := 0; i < n; i++ {
			x[i] = rune(alpha[(i*7)%len(alpha)])
			if i%4 == 3 {
				y[i] = rune(alpha[(i*11+5)%len(alpha)])
			} else {
				y[i] = x[i]
			}
		}
		return string(x), string(y)
	}
	for _, n := range []int{8, 32, 64, 160} {
		x, y := pair(n)
		b.Run(fmt.Sprintf("dp/%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				EditDistanceDP(x, y)
			}
		})
		b.Run(fmt.Sprintf("myers/%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				EditDistanceMyers(x, y)
			}
		})
	}
}
