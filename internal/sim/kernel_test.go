package sim

import (
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"
)

// jwVariants are the Jaro-Winkler parameterizations the differential
// tests cover: the defaults Soft TF-IDF and Monge-Elkan use, and two
// custom ones (the first lets the boost overshoot 1, so the clamp is
// exercised too).
var jwVariants = []JaroWinkler{{}, {Scale: 0.2, MaxPrefix: 6}, {Scale: 0.05, MaxPrefix: 2}}

// checkJaroParity fails unless Jaro and every JaroWinkler variant score
// a, b bit for bit like the flag-slice reference kernel over []rune.
func checkJaroParity(t *testing.T, a, b string) {
	t.Helper()
	ra, rb := []rune(a), []rune(b)
	if got, want := (Jaro{}).Sim(a, b), jaroRunes(ra, rb); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("Jaro(%q, %q) = %v, rune reference %v", a, b, got, want)
	}
	for _, jw := range jwVariants {
		if got, want := jw.Sim(a, b), jw.boost(jaroRunes(ra, rb), ra, rb); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%+v.Sim(%q, %q) = %v, rune reference %v", jw, a, b, got, want)
		}
	}
}

// maskProjection maps s into the mask kernel's domain: its first
// jaroMaskRunes runes.
func maskProjection(s string) string {
	if r := []rune(s); len(r) > jaroMaskRunes {
		return string(r[:jaroMaskRunes])
	}
	return s
}

// FuzzJaroWinkler is the differential test of the mask kernel: on any
// input it must equal the rune reference bit for bit, for Jaro and for
// Jaro-Winkler at default and custom parameters. Each input is also cut
// to its first 64 runes, so every fuzzed pair exercises the mask kernel
// whatever its length. The seed corpus (testdata/fuzz) covers empty,
// 1-byte, 64- and 65-byte, 64- and 65-rune non-ASCII, invalid UTF-8 and
// identical strings.
func FuzzJaroWinkler(f *testing.F) {
	f.Fuzz(func(t *testing.T, a, b string) {
		checkJaroParity(t, a, b)
		checkJaroParity(t, maskProjection(a), maskProjection(b))
	})
}

// TestJaroMaskEqualsRunes drives the mask kernel through random pairs
// over a small alphabet — so matches, transpositions and shared
// prefixes are common — at every length up to one past the mask width,
// in ASCII and in multi-byte runes.
func TestJaroMaskEqualsRunes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, alpha := range [][]rune{[]rune("abcde"), []rune("aéü日本")} {
		word := func() []rune {
			w := make([]rune, rng.Intn(jaroMaskRunes+2))
			for i := range w {
				w[i] = alpha[rng.Intn(len(alpha))]
			}
			return w
		}
		for i := 0; i < 10000; i++ {
			a, b := word(), word()
			checkJaroParity(t, string(a), string(b))
			// A mutated copy keeps the pair similar enough to reach the
			// Winkler boost and the transposition count.
			b = append(b[:0], a...)
			for k := 0; k < len(b)/4; k++ {
				b[rng.Intn(len(b))] = alpha[rng.Intn(len(alpha))]
			}
			checkJaroParity(t, string(a), string(b))
		}
	}
}

// TestKernelsAllocateNothing is the allocation gate of the Jaro family
// and the kernels built on it: on input of at most 64 runes, ASCII or
// not, scoring allocates nothing — not Jaro, not Jaro-Winkler, not
// Monge-Elkan over token profiles, not Soft TF-IDF over map or encoded
// profiles. Edit distance over rune slices allocates nothing either,
// from the DP's stack row up to 256-rune ASCII patterns in the blocked
// Myers kernel.
func TestKernelsAllocateNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	// The bench inputs plus pairs at the mask width: 64 runes apiece,
	// ASCII and multi-byte.
	long64 := strings.Repeat("western digital ", 4)
	wide64 := strings.Repeat("日本語テキスト処理", 8)[:64*3]
	var vals []string
	for _, in := range benchInputs {
		vals = append(vals, in.a, in.b)
	}
	vals = append(vals, long64, long64[1:]+"x", wide64, "日本誤"+wide64[9:], "café crème brûlée", "cafe creme brulee")
	soft := SoftTFIDF{Corpus: buildCorpus(vals...)}
	d := buildDict(soft, vals...)
	gate := func(name string, fn func()) {
		t.Helper()
		if n := testing.AllocsPerRun(100, fn); n != 0 {
			t.Errorf("%s allocates %.1f per call, want 0", name, n)
		}
	}
	for k := 0; k < len(vals); k += 2 {
		a, b := vals[k], vals[k+1]
		gate("Jaro.Sim", func() { Jaro{}.Sim(a, b) })
		gate("JaroWinkler.Sim", func() { JaroWinkler{}.Sim(a, b) })
		gate("JaroWinkler{custom}.Sim", func() { JaroWinkler{Scale: 0.2, MaxPrefix: 6}.Sim(a, b) })

		me := MongeElkan{}
		ma, mb := me.Profile(a), me.Profile(b)
		gate("MongeElkan.SimProfiles", func() { me.SimProfiles(ma, mb) })

		wa, wb := soft.Profile(a), soft.Profile(b)
		gate("SoftTFIDF.SimProfiles(map)", func() { soft.SimProfiles(wa, wb) })
		ea, eb := soft.ProfileDict(a, d), soft.ProfileDict(b, d)
		gate("SoftTFIDF.SimProfiles(encoded)", func() { soft.SimProfiles(ea, eb) })
	}
	for _, n := range []int{3, 65, 128, 256} {
		a, b := []rune(strings.Repeat("abcdefgh", 32)[:n]), []rune(strings.Repeat("abdcefhg", 32)[:n])
		gate("levenshteinDistance", func() { levenshteinDistance(a, b) })
	}
}

// TestSoftTFIDFConcurrentSharedProfiles scores one set of encoded
// profiles, over one shared Dict, from 8 goroutines at once — the way
// shard workers share a compiled function — and requires exactly the
// serial scores. The Dict holds no mutable state, so there is nothing
// to lock; run it under -race to check that stays true.
func TestSoftTFIDFConcurrentSharedProfiles(t *testing.T) {
	var vals []string
	for _, in := range benchInputs {
		vals = append(vals, in.a, in.b)
	}
	vals = append(vals, "robert smith madison", "rupert smyth madson", "", "日本語 テキスト")
	corpus := buildCorpus(vals...)
	soft := SoftTFIDF{Corpus: corpus}
	d := buildDict(soft, vals...)
	profs := make([]any, len(vals))
	for i, v := range vals {
		profs[i] = soft.ProfileDict(v, d)
	}
	serial := make([]float64, len(vals)*len(vals))
	for i := range profs {
		for j := range profs {
			serial[i*len(vals)+j] = soft.SimProfiles(profs[i], profs[j])
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for rep := 0; rep < 20; rep++ {
				for k := range serial {
					// Each worker walks the pairs from its own offset.
					k = (k + w*7) % len(serial)
					i, j := k/len(vals), k%len(vals)
					if got := soft.SimProfiles(profs[i], profs[j]); math.Float64bits(got) != math.Float64bits(serial[k]) {
						t.Errorf("worker %d: pair (%d, %d) = %v, serial %v", w, i, j, got, serial[k])
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}
