package sim

import (
	"slices"
	"sort"
)

// Dictionary-encoded similarity profiles. A Dict interns the token
// universe of one (tokenizer, column pair) to dense uint32 IDs whose
// numeric order equals the lexicographic order of the tokens. Set and
// vector profiles then become sorted []uint32 slices (with parallel
// []float64 count/weight arrays), and profile comparison runs as a
// branch-light sorted-merge intersection instead of hash-map probes.
//
// Exactness contract: every encoded kernel reproduces the map-based
// SimProfiles (and hence Sim) bit for bit. Two properties make that
// hold without further care:
//
//   - Set kernels (Jaccard, Dice, Overlap, Trigram, Soundex) and the
//     Cosine dot product accumulate integers in float64, which is exact
//     in any summation order.
//   - Because IDs are assigned in lexicographic rank order, a merge
//     intersection visits tokens in exactly the sorted-string order the
//     map kernels iterate in, so weighted dot products (TF-IDF family)
//     add the same float terms in the same order.

// Dict is a sealed token dictionary: token -> dense uint32 ID, with
// IDs assigned in lexicographic token order. Build one with
// DictBuilder; a sealed Dict holds no mutable state, so it is safe for
// concurrent use and its footprint is fixed at Bytes.
type Dict struct {
	ids  map[string]uint32
	toks []string
}

// Len returns the number of distinct tokens.
func (d *Dict) Len() int { return len(d.toks) }

// Token returns the token with the given ID.
func (d *Dict) Token(id uint32) string { return d.toks[id] }

// ID returns the ID of tok and whether it is present.
func (d *Dict) ID(tok string) (uint32, bool) {
	id, ok := d.ids[tok]
	return id, ok
}

// TokenID implements TokenSink against a sealed dictionary: a
// lookup-only sink that never allocates (the map probe on a
// string-converted byte slice is compiled to a no-copy lookup) and
// reports ok=false for tokens outside the sealed universe. Streaming
// appends use it to detect dictionary coverage while encoding.
func (d *Dict) TokenID(tok []byte) (uint32, bool) {
	id, ok := d.ids[string(tok)]
	return id, ok
}

// Bytes estimates the dictionary's memory footprint: token bytes, the
// id->token slice, and the token->id map (Go maps hold ~8 bytes of
// bucket overhead per entry beyond key+value).
func (d *Dict) Bytes() int {
	b := 0
	for _, t := range d.toks {
		b += len(t)
	}
	const strHeader = 16                                         // string header in the toks slice
	const mapEntry = 16 /* string header */ + 4 /* uint32 */ + 8 /* bucket overhead */
	return b*2 + len(d.toks)*(strHeader+mapEntry)
}

// DictBuilder accumulates the token universe before sealing it into a
// Dict. Rank-ordered IDs require the full universe up front, which is
// why dictionaries are built in one pass over a column pair rather than
// interned on the fly. While building, the builder doubles as a
// TokenSink handing out provisional insertion-order IDs, so an
// ID-emitting tokenizer can intern and encode in the same scan;
// BuildRemap then converts the provisional stream to rank IDs.
type DictBuilder struct {
	ids  map[string]uint32 // token -> provisional (insertion-order) ID
	toks []string          // provisional ID -> token
}

// NewDictBuilder returns an empty builder.
func NewDictBuilder() *DictBuilder {
	return &DictBuilder{ids: make(map[string]uint32)}
}

// Add interns each token of one value.
func (b *DictBuilder) Add(tokens []string) {
	for _, t := range tokens {
		if _, ok := b.ids[t]; !ok {
			b.ids[t] = uint32(len(b.toks))
			b.toks = append(b.toks, t)
		}
	}
}

// TokenID implements TokenSink: tok is interned (the string copy is
// made only the first time a token is seen — the lookup itself does not
// allocate) and its provisional ID returned. ok is always true.
func (b *DictBuilder) TokenID(tok []byte) (uint32, bool) {
	if id, ok := b.ids[string(tok)]; ok {
		return id, true
	}
	id := uint32(len(b.toks))
	t := string(tok)
	b.ids[t] = id
	b.toks = append(b.toks, t)
	return id, true
}

// Build seals the accumulated universe: tokens are sorted and assigned
// IDs equal to their lexicographic rank.
func (b *DictBuilder) Build() *Dict {
	d, _ := b.BuildRemap()
	return d
}

// BuildRemap seals the universe and additionally returns the mapping
// from the builder's provisional IDs to the sealed rank IDs
// (remap[provisional] = rank), which a StreamBuilder applies to the
// token stream it emitted during interning.
func (b *DictBuilder) BuildRemap() (*Dict, []uint32) {
	toks := make([]string, len(b.toks))
	copy(toks, b.toks)
	sort.Strings(toks)
	ids := make(map[string]uint32, len(toks))
	for i, t := range toks {
		ids[t] = uint32(i)
	}
	remap := make([]uint32, len(b.toks))
	for prov, t := range b.toks {
		remap[prov] = ids[t]
	}
	return &Dict{ids: ids, toks: toks}, remap
}

// ProfileSpec identifies the universe of an encoded profile for
// sharing. Kind keys whole profile sets (features with equal Kind over
// the same columns share their encoded profiles outright); Space keys
// dictionaries (features whose profiles draw tokens from the same
// tokenizer share one Dict across kinds).
type ProfileSpec struct {
	Kind  string
	Space string
}

// DictProfiler is a Profiler whose profiles can be dictionary-encoded.
// DictTokens returns the tokens of s that a dictionary must intern;
// ProfileDict builds the encoded profile of s against a sealed Dict
// covering every token DictTokens yields for the values being profiled.
// SimProfiles accepts the encoded profiles ProfileDict returns as well
// as the map profiles Profile returns, and scores them identically.
type DictProfiler interface {
	Profiler
	ProfileSpec() ProfileSpec
	DictTokens(s string) []string
	ProfileDict(s string, d *Dict) any
}

// setProfile is the encoded form of a token (or phonetic-code) set:
// sorted distinct IDs.
type setProfile struct {
	d   *Dict
	ids []uint32
}

// countProfile is the encoded form of a token-count vector: sorted
// distinct IDs with parallel multiplicities, plus the precomputed
// squared norm (an exact integer sum).
type countProfile struct {
	d      *Dict
	ids    []uint32
	counts []float64
	norm   float64
}

// weightProfile is the encoded form of a TF-IDF weight vector: sorted
// distinct IDs with parallel L2-normalized weights.
type weightProfile struct {
	d   *Dict
	ids []uint32
	w   []float64
}

// encodeTokenSet builds the sorted-ID set profile of a token multiset.
// Every token must be present in d (the dictionary is built over the
// same values being encoded).
func encodeTokenSet(d *Dict, tokens []string) *setProfile {
	ids := make([]uint32, 0, len(tokens))
	for _, t := range tokens {
		id, ok := d.ids[t]
		if !ok {
			panic("sim: token " + t + " missing from profile dictionary")
		}
		ids = append(ids, id)
	}
	slices.Sort(ids)
	ids = slices.Compact(ids)
	return &setProfile{d: d, ids: ids}
}

// encodeCounts builds the sorted-ID count profile of a token-count map.
// The squared norm is a sum of integer squares, exact in any order.
func encodeCounts(d *Dict, counts map[string]int) *countProfile {
	p := &countProfile{d: d, ids: make([]uint32, 0, len(counts))}
	for t := range counts {
		id, ok := d.ids[t]
		if !ok {
			panic("sim: token " + t + " missing from profile dictionary")
		}
		p.ids = append(p.ids, id)
	}
	slices.Sort(p.ids)
	p.counts = make([]float64, len(p.ids))
	for i, id := range p.ids {
		x := float64(counts[d.toks[id]])
		p.counts[i] = x
		p.norm += x * x
	}
	return p
}

// encodeWeights builds the sorted-ID weight profile of a TF-IDF weight
// map. The weights are copied verbatim, so they carry exactly the bits
// Corpus.weights produced.
func encodeWeights(d *Dict, w map[string]float64) *weightProfile {
	p := &weightProfile{d: d, ids: make([]uint32, 0, len(w))}
	for t := range w {
		id, ok := d.ids[t]
		if !ok {
			panic("sim: token " + t + " missing from profile dictionary")
		}
		p.ids = append(p.ids, id)
	}
	slices.Sort(p.ids)
	p.w = make([]float64, len(p.ids))
	for i, id := range p.ids {
		p.w[i] = w[d.toks[id]]
	}
	return p
}

// gallopRatio is the size skew at which intersection switches from the
// linear merge to galloping (binary-probe) search: when the larger side
// is at least this many times the smaller, probing beats scanning.
const gallopRatio = 8

// intersectCount returns |a ∩ b| for two sorted ID slices.
func intersectCount(a, b []uint32) int {
	if len(a) > len(b) {
		a, b = b, a
	}
	// Disjoint ID ranges force an empty intersection — and with it a
	// zero score for every set kernel — without touching the elements.
	if len(a) == 0 || a[len(a)-1] < b[0] || b[len(b)-1] < a[0] {
		return 0
	}
	if len(b) >= gallopRatio*len(a) {
		n, lo := 0, 0
		for _, x := range a {
			lo = gallopSearch(b, lo, x)
			if lo == len(b) {
				break
			}
			if b[lo] == x {
				n++
				lo++
			}
		}
		return n
	}
	n, i, j := 0, 0, 0
	for i < len(a) && j < len(b) {
		va, vb := a[i], b[j]
		if va == vb {
			n++
			i++
			j++
		} else if va < vb {
			i++
		} else {
			j++
		}
	}
	return n
}

// dotSorted returns Σ aw[i]·bw[j] over matching IDs of two sorted
// profiles. Terms accumulate in ascending ID order — lexicographic
// token order — matching the sorted-key iteration of the map kernels,
// so float results are bit-identical to them.
func dotSorted(ai []uint32, aw []float64, bi []uint32, bw []float64) float64 {
	if len(ai) > len(bi) {
		ai, aw, bi, bw = bi, bw, ai, aw
	}
	if len(ai) == 0 || ai[len(ai)-1] < bi[0] || bi[len(bi)-1] < ai[0] {
		return 0
	}
	var dot float64
	if len(bi) >= gallopRatio*len(ai) {
		lo := 0
		for i, x := range ai {
			lo = gallopSearch(bi, lo, x)
			if lo == len(bi) {
				break
			}
			if bi[lo] == x {
				dot += aw[i] * bw[lo]
				lo++
			}
		}
		return dot
	}
	i, j := 0, 0
	for i < len(ai) && j < len(bi) {
		va, vb := ai[i], bi[j]
		if va == vb {
			dot += aw[i] * bw[j]
			i++
			j++
		} else if va < vb {
			i++
		} else {
			j++
		}
	}
	return dot
}

// gallopSearch returns the first index >= start with s[i] >= x, using
// exponential probing followed by binary search — O(log gap) instead of
// O(gap) when the match is far ahead.
func gallopSearch(s []uint32, start int, x uint32) int {
	bound := 1
	for start+bound < len(s) && s[start+bound] < x {
		bound <<= 1
	}
	lo := start + bound/2
	hi := start + bound
	if hi > len(s) {
		hi = len(s)
	}
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// ProfileBytes estimates the memory footprint of one cached profile of
// any kind (encoded or map-based). Map profiles are charged the ~8
// bytes/entry of Go map bucket overhead on top of key and value bytes.
func ProfileBytes(p any) int {
	const strHeader = 16
	const mapOverhead = 8
	mapStrings := func(n int, keyBytes int) int {
		return keyBytes + n*(strHeader+mapOverhead)
	}
	switch v := p.(type) {
	case nil:
		return 0
	case *setProfile:
		return 24 /* slice header */ + 4*len(v.ids)
	case *countProfile:
		return 2*24 + 12*len(v.ids) + 8
	case *weightProfile:
		return 2*24 + 12*len(v.ids)
	case map[string]struct{}: // tokenSetProfile, soundexProfile
		b := 0
		for t := range v {
			b += len(t)
		}
		return mapStrings(len(v), b)
	case cosineProfile:
		b := 0
		for t := range v.counts {
			b += len(t)
		}
		return mapStrings(len(v.counts), b) + 8*len(v.counts) + 8
	case weightsProfile:
		b := 0
		for _, t := range v.sorted {
			b += 2 * len(t) // once in the map key, once in the sorted slice
		}
		return mapStrings(len(v.w), b) + 8*len(v.w) + strHeader*len(v.sorted) + 24
	case []string:
		b := 24
		for _, t := range v {
			b += strHeader + len(t)
		}
		return b
	default:
		return 0
	}
}
