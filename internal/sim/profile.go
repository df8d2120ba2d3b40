package sim

import "math"

// Profiler is implemented by similarity functions that compare cached
// per-record profiles instead of raw strings. Record attribute values
// are compared against many counterparts, so caching a profile per
// record amortizes tokenization and set/count/weight construction
// across all its pairs.
//
// SimProfiles(pa, pb) must equal Sim(a, b) exactly, where pa and pb are
// the profiles of a and b. A DictProfiler's profiles are
// dictionary-encoded through a token stream (ProfilesFromStream,
// ProfileFromIDs); a ValueProfiler profiles one value at a time.
type Profiler interface {
	Func
	// SimProfiles compares the profiles of two values.
	SimProfiles(a, b any) float64
}

// ValueProfiler is a Profiler whose profile of a value is built from
// that value alone. Monge-Elkan, whose profile is its token list, is
// the one such similarity.
type ValueProfiler interface {
	Profiler
	// Profile precomputes the comparable form of one string.
	Profile(s string) any
}

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

// SimProfiles implements Profiler.
func (Jaccard) SimProfiles(a, b any) float64 {
	return jaccardEncoded(a.(*setProfile), b.(*setProfile))
}

// ProfileSpec implements DictProfiler.
func (j Jaccard) ProfileSpec() ProfileSpec { return setSpec(orWhitespace(j.Tok).Name()) }

// SimProfiles implements Profiler.
func (Dice) SimProfiles(a, b any) float64 {
	ea, eb := a.(*setProfile), b.(*setProfile)
	la, lb := len(ea.ids), len(eb.ids)
	if la == 0 && lb == 0 {
		return 1
	}
	if la == 0 || lb == 0 {
		return 0
	}
	return 2 * float64(intersectCount(ea.ids, eb.ids)) / float64(la+lb)
}

// ProfileSpec implements DictProfiler.
func (d Dice) ProfileSpec() ProfileSpec { return setSpec(orWhitespace(d.Tok).Name()) }

// SimProfiles implements Profiler.
func (Overlap) SimProfiles(a, b any) float64 {
	ea, eb := a.(*setProfile), b.(*setProfile)
	la, lb := len(ea.ids), len(eb.ids)
	if la == 0 && lb == 0 {
		return 1
	}
	if la == 0 || lb == 0 {
		return 0
	}
	return float64(intersectCount(ea.ids, eb.ids)) / float64(minInt(la, lb))
}

// ProfileSpec implements DictProfiler.
func (o Overlap) ProfileSpec() ProfileSpec { return setSpec(orWhitespace(o.Tok).Name()) }

// trigramTok is the fixed tokenizer behind Trigram.
var trigramTok = QGram{Q: 3, Pad: true}

// SimProfiles implements Profiler.
func (Trigram) SimProfiles(a, b any) float64 {
	return jaccardEncoded(a.(*setProfile), b.(*setProfile))
}

// ProfileSpec implements DictProfiler.
func (Trigram) ProfileSpec() ProfileSpec { return setSpec(trigramTok.Name()) }

// SimProfiles implements Profiler.
func (Cosine) SimProfiles(a, b any) float64 {
	ea, eb := a.(*countProfile), b.(*countProfile)
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

// ProfileSpec implements DictProfiler.
func (c Cosine) ProfileSpec() ProfileSpec { return countSpec(orWhitespace(c.Tok).Name()) }

// SimProfiles implements Profiler. The sorted-merge dot product
// accumulates terms in lexicographic token order, exactly as Sim's
// sorted-key iteration does.
func (TFIDF) SimProfiles(a, b any) float64 {
	ea, eb := a.(*weightProfile), b.(*weightProfile)
	la, lb := len(ea.ids), len(eb.ids)
	if la == 0 && lb == 0 {
		return 1
	}
	if la == 0 || lb == 0 {
		return 0
	}
	return clamp01(dotSorted(ea.ids, ea.w, eb.ids, eb.w))
}

// ProfileSpec implements DictProfiler.
func (t TFIDF) ProfileSpec() ProfileSpec { return weightSpec(t.Corpus) }

// SimProfiles implements Profiler. IDs ascend in token order, so the
// outer and inner scans visit tokens exactly as Sim's sorted iteration
// does (same best-match tie-breaking, same accumulation order). Each
// token pair is scored afresh by the allocation-free Jaro-Winkler
// kernel; nothing is cached.
func (s SoftTFIDF) SimProfiles(a, b any) float64 {
	theta := s.Theta
	if theta == 0 {
		theta = 0.9
	}
	ea, eb := a.(*weightProfile), b.(*weightProfile)
	la, lb := len(ea.ids), len(eb.ids)
	if la == 0 && lb == 0 {
		return 1
	}
	if la == 0 || lb == 0 {
		return 0
	}
	toks := ea.d.toks
	var jw JaroWinkler
	var total float64
	for i, ia := range ea.ids {
		best := 0.0
		bestJ := -1
		for j, ib := range eb.ids {
			if v := jw.Sim(toks[ia], toks[ib]); v > best {
				best = v
				bestJ = j
			}
		}
		if best >= theta {
			total += ea.w[i] * eb.w[bestJ] * best
		}
	}
	return clamp01(total)
}

// ProfileSpec implements DictProfiler (shared with TFIDF, see
// weightSpec).
func (s SoftTFIDF) ProfileSpec() ProfileSpec { return weightSpec(s.Corpus) }

// Profile implements ValueProfiler.
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

// SimProfiles implements Profiler: the Jaccard of the two values'
// distinct-code sets, which is what Sim computes. Every token has a
// code, so a set is empty exactly when its value has no tokens.
func (Soundex) SimProfiles(a, b any) float64 {
	return jaccardEncoded(a.(*setProfile), b.(*setProfile))
}

// ProfileSpec implements DictProfiler. The token space is phonetic
// codes, not words, so Soundex never shares a dictionary with word
// tokenizers.
func (Soundex) ProfileSpec() ProfileSpec { return setSpec("sdx") }
