package sim

import "math"

// Profiler is implemented by similarity functions that can split their
// work into a per-string profile (tokenization, set/count/weight
// construction) and a profile-to-profile comparison. Record attribute
// values are compared against many counterparts, so caching profiles
// per record amortizes the per-string work across all its pairs.
//
// SimProfiles(Profile(a), Profile(b)) must equal Sim(a, b) exactly.
// Functions that also implement DictProfiler accept dictionary-encoded
// profiles (built by ProfileDict) in SimProfiles under the same
// exactness contract; the encoded kernels replace hash-map probes with
// sorted-merge intersection over integer token IDs.
type Profiler interface {
	Func
	// Profile precomputes the comparable form of one string.
	Profile(s string) any
	// SimProfiles compares two values returned by Profile (or by
	// ProfileDict for DictProfilers; the two representations must not
	// be mixed in one call).
	SimProfiles(a, b any) float64
}

// tokenSetProfile is the map profile of set-based similarities.
type tokenSetProfile = map[string]struct{}

// orWhitespace returns tok, defaulting to the whitespace tokenizer.
func orWhitespace(tok Tokenizer) Tokenizer {
	if tok == nil {
		return Whitespace{}
	}
	return tok
}

// jaccardEncoded scores two encoded token sets exactly like
// jaccardSets: integer intersection over sorted IDs.
func jaccardEncoded(a, b *setProfile) float64 {
	la, lb := len(a.ids), len(b.ids)
	if la == 0 && lb == 0 {
		return 1
	}
	if la == 0 || lb == 0 {
		return 0
	}
	inter := intersectCount(a.ids, b.ids)
	return float64(inter) / float64(la+lb-inter)
}

// Profile implements Profiler.
func (j Jaccard) Profile(s string) any {
	return tokenSet(orWhitespace(j.Tok).Tokens(s))
}

// SimProfiles implements Profiler.
func (j Jaccard) SimProfiles(a, b any) float64 {
	if ea, ok := a.(*setProfile); ok {
		return jaccardEncoded(ea, b.(*setProfile))
	}
	return jaccardSets(a.(tokenSetProfile), b.(tokenSetProfile))
}

// ProfileSpec implements DictProfiler.
func (j Jaccard) ProfileSpec() ProfileSpec {
	name := orWhitespace(j.Tok).Name()
	return ProfileSpec{Kind: "set|" + name, Space: name}
}

// DictTokens implements DictProfiler.
func (j Jaccard) DictTokens(s string) []string { return orWhitespace(j.Tok).Tokens(s) }

// ProfileDict implements DictProfiler.
func (j Jaccard) ProfileDict(s string, d *Dict) any {
	return encodeTokenSet(d, orWhitespace(j.Tok).Tokens(s))
}

// Profile implements Profiler.
func (d Dice) Profile(s string) any {
	return tokenSet(orWhitespace(d.Tok).Tokens(s))
}

// SimProfiles implements Profiler.
func (d Dice) SimProfiles(a, b any) float64 {
	if ea, ok := a.(*setProfile); ok {
		eb := b.(*setProfile)
		la, lb := len(ea.ids), len(eb.ids)
		if la == 0 && lb == 0 {
			return 1
		}
		if la == 0 || lb == 0 {
			return 0
		}
		return 2 * float64(intersectCount(ea.ids, eb.ids)) / float64(la+lb)
	}
	sa, sb := a.(tokenSetProfile), b.(tokenSetProfile)
	if len(sa) == 0 && len(sb) == 0 {
		return 1
	}
	if len(sa) == 0 || len(sb) == 0 {
		return 0
	}
	return 2 * float64(intersectSets(sa, sb)) / float64(len(sa)+len(sb))
}

// ProfileSpec implements DictProfiler.
func (d Dice) ProfileSpec() ProfileSpec {
	name := orWhitespace(d.Tok).Name()
	return ProfileSpec{Kind: "set|" + name, Space: name}
}

// DictTokens implements DictProfiler.
func (d Dice) DictTokens(s string) []string { return orWhitespace(d.Tok).Tokens(s) }

// ProfileDict implements DictProfiler.
func (d Dice) ProfileDict(s string, dict *Dict) any {
	return encodeTokenSet(dict, orWhitespace(d.Tok).Tokens(s))
}

// Profile implements Profiler.
func (o Overlap) Profile(s string) any {
	return tokenSet(orWhitespace(o.Tok).Tokens(s))
}

// SimProfiles implements Profiler.
func (o Overlap) SimProfiles(a, b any) float64 {
	if ea, ok := a.(*setProfile); ok {
		eb := b.(*setProfile)
		la, lb := len(ea.ids), len(eb.ids)
		if la == 0 && lb == 0 {
			return 1
		}
		if la == 0 || lb == 0 {
			return 0
		}
		return float64(intersectCount(ea.ids, eb.ids)) / float64(minInt(la, lb))
	}
	sa, sb := a.(tokenSetProfile), b.(tokenSetProfile)
	if len(sa) == 0 && len(sb) == 0 {
		return 1
	}
	if len(sa) == 0 || len(sb) == 0 {
		return 0
	}
	return float64(intersectSets(sa, sb)) / float64(minInt(len(sa), len(sb)))
}

// ProfileSpec implements DictProfiler.
func (o Overlap) ProfileSpec() ProfileSpec {
	name := orWhitespace(o.Tok).Name()
	return ProfileSpec{Kind: "set|" + name, Space: name}
}

// DictTokens implements DictProfiler.
func (o Overlap) DictTokens(s string) []string { return orWhitespace(o.Tok).Tokens(s) }

// ProfileDict implements DictProfiler.
func (o Overlap) ProfileDict(s string, d *Dict) any {
	return encodeTokenSet(d, orWhitespace(o.Tok).Tokens(s))
}

// trigramTok is the fixed tokenizer behind Trigram.
var trigramTok = QGram{Q: 3, Pad: true}

// Profile implements Profiler.
func (Trigram) Profile(s string) any {
	return tokenSet(trigramTok.Tokens(s))
}

// SimProfiles implements Profiler.
func (Trigram) SimProfiles(a, b any) float64 {
	if ea, ok := a.(*setProfile); ok {
		return jaccardEncoded(ea, b.(*setProfile))
	}
	return jaccardSets(a.(tokenSetProfile), b.(tokenSetProfile))
}

// ProfileSpec implements DictProfiler.
func (Trigram) ProfileSpec() ProfileSpec {
	return ProfileSpec{Kind: "set|" + trigramTok.Name(), Space: trigramTok.Name()}
}

// DictTokens implements DictProfiler.
func (Trigram) DictTokens(s string) []string { return trigramTok.Tokens(s) }

// ProfileDict implements DictProfiler.
func (Trigram) ProfileDict(s string, d *Dict) any {
	return encodeTokenSet(d, trigramTok.Tokens(s))
}

// cosineProfile caches counts plus the squared vector norm.
type cosineProfile struct {
	counts map[string]int
	norm   float64
}

// Profile implements Profiler.
func (c Cosine) Profile(s string) any {
	counts := tokenCounts(orWhitespace(c.Tok).Tokens(s))
	var norm float64
	for _, x := range counts {
		norm += float64(x) * float64(x)
	}
	return cosineProfile{counts: counts, norm: norm}
}

// SimProfiles implements Profiler.
func (c Cosine) SimProfiles(a, b any) float64 {
	if ea, ok := a.(*countProfile); ok {
		eb := b.(*countProfile)
		la, lb := len(ea.ids), len(eb.ids)
		if la == 0 && lb == 0 {
			return 1
		}
		if la == 0 || lb == 0 {
			return 0
		}
		dot := dotSorted(ea.ids, ea.counts, eb.ids, eb.counts)
		if dot == 0 {
			return 0
		}
		return clamp01(dot / (math.Sqrt(ea.norm) * math.Sqrt(eb.norm)))
	}
	pa, pb := a.(cosineProfile), b.(cosineProfile)
	if len(pa.counts) == 0 && len(pb.counts) == 0 {
		return 1
	}
	if len(pa.counts) == 0 || len(pb.counts) == 0 {
		return 0
	}
	ca, cb := pa.counts, pb.counts
	if len(cb) < len(ca) {
		ca, cb = cb, ca
	}
	var dot float64
	for t, x := range ca {
		if y, ok := cb[t]; ok {
			dot += float64(x) * float64(y)
		}
	}
	if dot == 0 {
		return 0
	}
	return clamp01(dot / (math.Sqrt(pa.norm) * math.Sqrt(pb.norm)))
}

// ProfileSpec implements DictProfiler.
func (c Cosine) ProfileSpec() ProfileSpec {
	name := orWhitespace(c.Tok).Name()
	return ProfileSpec{Kind: "count|" + name, Space: name}
}

// DictTokens implements DictProfiler.
func (c Cosine) DictTokens(s string) []string { return orWhitespace(c.Tok).Tokens(s) }

// ProfileDict implements DictProfiler.
func (c Cosine) ProfileDict(s string, d *Dict) any {
	return encodeCounts(d, tokenCounts(orWhitespace(c.Tok).Tokens(s)))
}

// weightsProfile caches the sorted tokens alongside the weight map so
// profile comparisons iterate deterministically without re-sorting.
type weightsProfile struct {
	w      map[string]float64
	sorted []string
}

func newWeightsProfile(w map[string]float64) weightsProfile {
	return weightsProfile{w: w, sorted: sortedKeys(w)}
}

// tfidfDot scores two encoded weight profiles: the sorted-merge dot
// product accumulates terms in lexicographic token order, exactly as
// the map kernel's sorted-key iteration does.
func tfidfDot(a, b *weightProfile) float64 {
	la, lb := len(a.ids), len(b.ids)
	if la == 0 && lb == 0 {
		return 1
	}
	if la == 0 || lb == 0 {
		return 0
	}
	return clamp01(dotSorted(a.ids, a.w, b.ids, b.w))
}

// Profile implements Profiler.
func (t TFIDF) Profile(s string) any { return newWeightsProfile(t.Corpus.weights(s)) }

// SimProfiles implements Profiler.
func (t TFIDF) SimProfiles(a, b any) float64 {
	if ea, ok := a.(*weightProfile); ok {
		return tfidfDot(ea, b.(*weightProfile))
	}
	pa, pb := a.(weightsProfile), b.(weightsProfile)
	if len(pa.w) == 0 && len(pb.w) == 0 {
		return 1
	}
	if len(pa.w) == 0 || len(pb.w) == 0 {
		return 0
	}
	if len(pb.w) < len(pa.w) {
		pa, pb = pb, pa
	}
	var dot float64
	for _, tok := range pa.sorted {
		if y, ok := pb.w[tok]; ok {
			dot += pa.w[tok] * y
		}
	}
	return clamp01(dot)
}

// ProfileSpec implements DictProfiler. TF-IDF and Soft TF-IDF share
// one profile kind: both compare the same L2-normalized weight
// vectors, built from the same corpus when bound to the same columns.
func (t TFIDF) ProfileSpec() ProfileSpec {
	name := t.Corpus.Tokenizer().Name()
	return ProfileSpec{Kind: "tfidf|" + name, Space: name}
}

// DictTokens implements DictProfiler.
func (t TFIDF) DictTokens(s string) []string { return t.Corpus.Tokenizer().Tokens(s) }

// ProfileDict implements DictProfiler.
func (t TFIDF) ProfileDict(s string, d *Dict) any {
	return encodeWeights(d, t.Corpus.weights(s))
}

// Profile implements Profiler.
func (s SoftTFIDF) Profile(str string) any { return newWeightsProfile(s.Corpus.weights(str)) }

// SimProfiles implements Profiler.
func (s SoftTFIDF) SimProfiles(a, b any) float64 {
	theta := s.Theta
	if theta == 0 {
		theta = 0.9
	}
	if ea, ok := a.(*weightProfile); ok {
		return s.simEncoded(ea, b.(*weightProfile), theta)
	}
	pa, pb := a.(weightsProfile), b.(weightsProfile)
	if len(pa.w) == 0 && len(pb.w) == 0 {
		return 1
	}
	if len(pa.w) == 0 || len(pb.w) == 0 {
		return 0
	}
	var jw JaroWinkler
	var total float64
	for _, ta := range pa.sorted {
		best := 0.0
		var bestTok string
		for _, tb := range pb.sorted {
			if d := jw.Sim(ta, tb); d > best {
				best = d
				bestTok = tb
			}
		}
		if best >= theta {
			total += pa.w[ta] * pb.w[bestTok] * best
		}
	}
	return clamp01(total)
}

// simEncoded is the dictionary-encoded Soft TF-IDF kernel. IDs ascend
// in token order, so the outer/inner scans visit tokens exactly as the
// map kernel's sorted iteration does (same best-match tie-breaking,
// same accumulation order). Each token pair is scored afresh by the
// allocation-free Jaro-Winkler kernel; nothing is cached.
func (s SoftTFIDF) simEncoded(a, b *weightProfile, theta float64) float64 {
	la, lb := len(a.ids), len(b.ids)
	if la == 0 && lb == 0 {
		return 1
	}
	if la == 0 || lb == 0 {
		return 0
	}
	toks := a.d.toks
	var jw JaroWinkler
	var total float64
	for i, ia := range a.ids {
		best := 0.0
		bestJ := -1
		for j, ib := range b.ids {
			if v := jw.Sim(toks[ia], toks[ib]); v > best {
				best = v
				bestJ = j
			}
		}
		if best >= theta {
			total += a.w[i] * b.w[bestJ] * best
		}
	}
	return clamp01(total)
}

// ProfileSpec implements DictProfiler (shared with TFIDF, see there).
func (s SoftTFIDF) ProfileSpec() ProfileSpec {
	name := s.Corpus.Tokenizer().Name()
	return ProfileSpec{Kind: "tfidf|" + name, Space: name}
}

// DictTokens implements DictProfiler.
func (s SoftTFIDF) DictTokens(str string) []string { return s.Corpus.Tokenizer().Tokens(str) }

// ProfileDict implements DictProfiler.
func (s SoftTFIDF) ProfileDict(str string, d *Dict) any {
	return encodeWeights(d, s.Corpus.weights(str))
}

// Profile implements Profiler.
func (MongeElkan) Profile(s string) any { return Whitespace{}.Tokens(s) }

// SimProfiles implements Profiler.
func (MongeElkan) SimProfiles(a, b any) float64 {
	ta, tb := a.([]string), b.([]string)
	if len(ta) == 0 && len(tb) == 0 {
		return 1
	}
	if len(ta) == 0 || len(tb) == 0 {
		return 0
	}
	var jw JaroWinkler
	var sum float64
	for _, x := range ta {
		best := 0.0
		for _, y := range tb {
			if d := jw.Sim(x, y); d > best {
				best = d
			}
		}
		sum += best
	}
	return clamp01(sum / float64(len(ta)))
}

// soundexProfile caches the distinct codes of a value's tokens.
type soundexProfile = map[string]struct{}

// soundexCodes returns the distinct-code multiset of a value's tokens.
func soundexCodes(s string) []string {
	toks := Whitespace{}.Tokens(s)
	codes := make([]string, len(toks))
	for i, t := range toks {
		codes[i] = SoundexCode(t)
	}
	return codes
}

// Profile implements Profiler.
func (Soundex) Profile(s string) any {
	codes := soundexCodes(s)
	set := make(soundexProfile, len(codes))
	for _, c := range codes {
		set[c] = struct{}{}
	}
	return set
}

// SimProfiles implements Profiler.
func (Soundex) SimProfiles(a, b any) float64 {
	if ea, ok := a.(*setProfile); ok {
		eb := b.(*setProfile)
		la, lb := len(ea.ids), len(eb.ids)
		if la == 0 && lb == 0 {
			return 1
		}
		if la == 0 || lb == 0 {
			return 0
		}
		match := intersectCount(ea.ids, eb.ids)
		denom := la + lb - match
		if denom == 0 {
			return 1
		}
		return float64(match) / float64(denom)
	}
	ca, cb := a.(soundexProfile), b.(soundexProfile)
	if len(ca) == 0 && len(cb) == 0 {
		return 1
	}
	if len(ca) == 0 || len(cb) == 0 {
		return 0
	}
	match := intersectSets(ca, cb)
	denom := len(ca) + len(cb) - match
	if denom == 0 {
		return 1
	}
	return float64(match) / float64(denom)
}

// ProfileSpec implements DictProfiler. The token space is phonetic
// codes, not words, so Soundex never shares a dictionary with word
// tokenizers.
func (Soundex) ProfileSpec() ProfileSpec {
	return ProfileSpec{Kind: "set|sdx", Space: "sdx"}
}

// DictTokens implements DictProfiler.
func (Soundex) DictTokens(s string) []string { return soundexCodes(s) }

// ProfileDict implements DictProfiler.
func (Soundex) ProfileDict(s string, d *Dict) any {
	return encodeTokenSet(d, soundexCodes(s))
}
