package sim

import "sort"

// Dictionary-encoded similarity profiles. A Dict interns the token
// universe of one (tokenizer, column pair) to dense uint32 IDs whose
// numeric order equals the lexicographic order of the tokens. Set and
// vector profiles then become sorted []uint32 slices (with parallel
// []float64 count/weight arrays), and profile comparison runs as a
// branch-light sorted-merge intersection over integers.
//
// Exactness contract: every encoded kernel reproduces Sim on the raw
// strings bit for bit. Two properties make that hold without further
// care:
//
//   - Set kernels (Jaccard, Dice, Overlap, Trigram, Soundex) and the
//     Cosine dot product accumulate integers in float64, which is exact
//     in any summation order.
//   - Because IDs are assigned in lexicographic rank order, a merge
//     intersection visits tokens in exactly the sorted-string order Sim
//     iterates in, so weighted dot products (TF-IDF family) add the
//     same float terms in the same order.

// Dict is a sealed token dictionary: token -> dense uint32 ID, with
// IDs assigned in lexicographic token order. Build one with a
// StreamBuilder; a sealed Dict holds no mutable state, so it is safe for
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
// interned on the fly. The builder is the TokenSink of that pass,
// handing out provisional insertion-order IDs, so an ID-emitting
// tokenizer interns and encodes in the same scan; BuildRemap then
// converts the provisional stream to rank IDs. StreamBuilder drives it.
type DictBuilder struct {
	ids  map[string]uint32 // token -> provisional (insertion-order) ID
	toks []string          // provisional ID -> token
}

// NewDictBuilder returns an empty builder.
func NewDictBuilder() *DictBuilder {
	return &DictBuilder{ids: make(map[string]uint32)}
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

// BuildRemap seals the accumulated universe — tokens are sorted and
// assigned IDs equal to their lexicographic rank — and returns the
// mapping from the builder's provisional IDs to the sealed rank IDs
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
// sharing, and how a record's token IDs encode to it. Kind keys whole
// profile sets (features with equal Kind over the same columns share
// their encoded profiles outright); Space keys dictionaries (features
// whose profiles draw tokens from the same tokenizer share one Dict
// across kinds).
type ProfileSpec struct {
	Kind  string
	Space string
	enc   encoding
	// corpus supplies the IDF of the weight encoding.
	corpus *Corpus
}

// encoding names the profile type a DictProfiler's records encode to.
type encoding uint8

const (
	setEncoding    encoding = iota // *setProfile
	countEncoding                  // *countProfile
	weightEncoding                 // *weightProfile
)

// setSpec is the spec of distinct-token sets over a token space.
func setSpec(space string) ProfileSpec {
	return ProfileSpec{Kind: "set|" + space, Space: space, enc: setEncoding}
}

// countSpec is the spec of token-count vectors over a token space.
func countSpec(space string) ProfileSpec {
	return ProfileSpec{Kind: "count|" + space, Space: space, enc: countEncoding}
}

// weightSpec is the spec of c's TF-IDF weight vectors. TF-IDF and Soft
// TF-IDF share it: both compare the same L2-normalized weight vectors,
// built from the same corpus when bound to the same columns.
func weightSpec(c *Corpus) ProfileSpec {
	space := c.Tokenizer().Name()
	return ProfileSpec{Kind: "tfidf|" + space, Space: space, enc: weightEncoding, corpus: c}
}

// DictProfiler is a Profiler whose profiles are dictionary-encoded: a
// StreamBuilder interns a column pair's tokens (its IDEmitter comes
// from EmitterFor), and ProfilesFromStream or ProfileFromIDs encode
// records into the kind ProfileSpec names. SimProfiles accepts exactly
// those encoded profiles.
type DictProfiler interface {
	Profiler
	ProfileSpec() ProfileSpec
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
// token order — matching the sorted-key iteration of Sim, so float
// results are bit-identical to it.
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

// ProfileBytes estimates the memory footprint of one cached profile:
// its struct (sizes on 64-bit platforms) plus the arrays it reaches.
func ProfileBytes(p any) int {
	switch v := p.(type) {
	case *setProfile:
		return 32 + 4*len(v.ids)
	case *countProfile:
		return 64 + 12*len(v.ids)
	case *weightProfile:
		return 56 + 12*len(v.ids)
	case []string:
		b := 24
		for _, t := range v {
			b += 16 /* string header */ + len(t)
		}
		return b
	default:
		return 0
	}
}
