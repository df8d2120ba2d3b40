package sim

import (
	"math"
	"slices"
)

// Token streams: the single-pass, arena-backed profile build. A
// StreamBuilder runs an IDEmitter over every value of a column pair,
// interning tokens and recording the full ID stream; Seal remaps the
// provisional IDs to rank IDs in place. ProfilesFromStream then encodes
// every record's profile out of shared slab arrays — one []uint32, one
// []float64 and one struct slab per profile set instead of three small
// allocations per record. ProfileFromIDs encodes one record alone,
// through the same encoder, into arrays of its own.

// TokenStream is the dictionary-ID form of every value of a column
// pair: record r's token IDs, in token order with duplicates, are
// IDs[Offs[r]:Offs[r+1]]. After Seal the IDs are lexicographic ranks in
// Dict.
type TokenStream struct {
	Dict *Dict
	IDs  []uint32
	Offs []int32
}

// NumRecords returns the number of values recorded in the stream.
func (ts *TokenStream) NumRecords() int { return len(ts.Offs) - 1 }

// Record returns record r's token IDs. The slice aliases the stream;
// ProfilesFromStream sorts it in place.
func (ts *TokenStream) Record(r int) []uint32 { return ts.IDs[ts.Offs[r]:ts.Offs[r+1]] }

// Bytes estimates the stream's memory footprint (excluding the Dict,
// which is accounted separately).
func (ts *TokenStream) Bytes() int {
	return 2*24 + 4*len(ts.IDs) + 4*len(ts.Offs)
}

// StreamBuilder accumulates a token stream while interning tokens into
// a DictBuilder, fusing dictionary construction and value encoding into
// one scan over the data.
type StreamBuilder struct {
	b    *DictBuilder
	em   IDEmitter
	sc   TokScratch
	ids  []uint32
	offs []int32
}

// NewStreamBuilder returns a builder emitting through em.
func NewStreamBuilder(em IDEmitter) *StreamBuilder {
	return &StreamBuilder{b: NewDictBuilder(), em: em, offs: []int32{0}}
}

// AddValue emits one value's tokens into the stream.
func (sb *StreamBuilder) AddValue(s string) {
	// A DictBuilder sink interns every token, so emission cannot fail.
	sb.ids, _ = sb.em.AppendTokenIDs(sb.ids, s, sb.b, &sb.sc)
	sb.offs = append(sb.offs, int32(len(sb.ids)))
}

// Seal sorts the token universe, remaps the provisional stream IDs to
// lexicographic ranks in place, and returns the stream with its sealed
// dictionary.
func (sb *StreamBuilder) Seal() *TokenStream {
	d, remap := sb.b.BuildRemap()
	for i, id := range sb.ids {
		sb.ids[i] = remap[id]
	}
	return &TokenStream{Dict: d, IDs: sb.ids, Offs: sb.offs}
}

// ProfilesFromStream encodes every record's profile of dp's kind from a
// sealed stream. Each record's stream subslice is sorted in place;
// kinds only consume the token multiset, so a shared stream may be
// encoded by several kinds in any order.
func ProfilesFromStream(dp DictProfiler, ts *TokenStream) []any {
	spec := dp.ProfileSpec()
	e := newEncoder(spec, ts.Dict, ts.NumRecords(), len(ts.IDs))
	if spec.enc == weightEncoding {
		// IDF per dictionary token, computed once, so the encode loop
		// does no per-token corpus lookup.
		e.idf = make([]float64, ts.Dict.Len())
		for id := range e.idf {
			e.idf[id] = spec.corpus.IDF(ts.Dict.Token(uint32(id)))
		}
	}
	out := make([]any, ts.NumRecords())
	for r := range out {
		out[r] = e.encode(ts.Record(r))
	}
	return out
}

// ProfileFromIDs encodes one record's profile of dp's kind from its
// (unsorted, duplicate-preserving) token IDs against the sealed dict d.
// ids is sorted in place. The profile gets arrays of its own, so
// dropping it frees them whatever becomes of other records. Streaming
// appends use this after emitting a new record against a covering
// dictionary.
func ProfileFromIDs(dp DictProfiler, d *Dict, ids []uint32) any {
	e := newEncoder(dp.ProfileSpec(), d, 1, len(ids))
	return e.encode(ids)
}

// encoder encodes records' sorted token IDs into profiles of one kind.
// It carves every profile out of slabs sized up front for all the
// records it will encode — the struct slab of its kind, the ID slab and
// (counts and weights) the value slab — so no slab reallocates and each
// profile's slices are full-capacity subslices: appending to one can
// never clobber its neighbour.
type encoder struct {
	spec    ProfileSpec
	d       *Dict
	idf     []float64 // IDF by token ID; nil asks the corpus per token
	ids     []uint32
	vals    []float64
	sets    []setProfile
	counts  []countProfile
	weights []weightProfile
}

// newEncoder returns an encoder with room for n records of at most
// tokens token IDs in total.
func newEncoder(spec ProfileSpec, d *Dict, n, tokens int) encoder {
	e := encoder{spec: spec, d: d, ids: make([]uint32, 0, tokens)}
	switch spec.enc {
	case setEncoding:
		e.sets = make([]setProfile, 0, n)
	case countEncoding:
		e.counts = make([]countProfile, 0, n)
		e.vals = make([]float64, 0, tokens)
	case weightEncoding:
		e.weights = make([]weightProfile, 0, n)
		e.vals = make([]float64, 0, tokens)
	}
	return e
}

// encode sorts rec in place and returns its profile. One run-length
// loop serves every kind: each distinct ID is kept once, with its
// multiplicity as the count, or with its TF-IDF weight (1 + ln tf)·idf.
// IDs ascend in token rank, so weights and norms accumulate in exactly
// the sorted token order Corpus.weights uses: bit-identical floats.
func (e *encoder) encode(rec []uint32) any {
	slices.Sort(rec)
	start := len(e.ids)
	var norm float64
	for k := 0; k < len(rec); {
		id := rec[k]
		j := k + 1
		for j < len(rec) && rec[j] == id {
			j++
		}
		e.ids = append(e.ids, id)
		if e.spec.enc != setEncoding {
			v := float64(j - k)
			if e.spec.enc == weightEncoding {
				v = (1 + math.Log(v)) * e.idfOf(id)
			}
			e.vals = append(e.vals, v)
			norm += v * v
		}
		k = j
	}
	ids := e.ids[start:len(e.ids):len(e.ids)]
	switch e.spec.enc {
	case setEncoding:
		e.sets = append(e.sets, setProfile{d: e.d, ids: ids})
		return &e.sets[len(e.sets)-1]
	case countEncoding:
		e.counts = append(e.counts, countProfile{d: e.d, ids: ids, counts: e.vals[start:len(e.vals):len(e.vals)], norm: norm})
		return &e.counts[len(e.counts)-1]
	}
	w := e.vals[start:len(e.vals):len(e.vals)]
	if norm == 0 {
		// Corpus.weights returns nil here: an empty profile. Drop the
		// zero-weight entries appended above.
		e.ids, e.vals = e.ids[:start], e.vals[:start]
		ids, w = ids[:0:0], w[:0:0]
	} else {
		norm = math.Sqrt(norm)
		for i := range w {
			w[i] /= norm
		}
	}
	e.weights = append(e.weights, weightProfile{d: e.d, ids: ids, w: w})
	return &e.weights[len(e.weights)-1]
}

// idfOf returns the IDF of token id.
func (e *encoder) idfOf(id uint32) float64 {
	if e.idf != nil {
		return e.idf[id]
	}
	return e.spec.corpus.IDF(e.d.Token(id))
}
