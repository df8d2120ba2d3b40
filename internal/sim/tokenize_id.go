package sim

import (
	"unicode"
	"unicode/utf8"
)

// ID-emitting tokenizers: the zero-allocation fast path of the ingest
// pipeline. The string tokenizers in tokenize.go materialize a []string
// per value (and, for q-grams, a string per gram); profile binding then
// interns those strings into a Dict and immediately throws them away.
// An IDEmitter fuses the two steps: it scans the value once, lowercases
// into a reused scratch buffer, and hands each token to a TokenSink as
// a byte slice — the sink interns it (DictBuilder) or looks it up
// (sealed Dict), and only the first sighting of a token ever allocates.
//
// Equivalence contract: for every value s, the token sequence an
// emitter produces equals, token for token, its string tokenizer's
// Tokens(s) (for Soundex: the code of each whitespace token).
// TestEmitterParity and FuzzEmitterParity pin this.

// TokenSink consumes tokens as byte slices and resolves them to IDs.
// Implemented by DictBuilder (interning, never fails) and by the sealed
// Dict (lookup only, ok=false for unknown tokens). The sink must not
// retain tok: the bytes alias the emitter's scratch buffer.
type TokenSink interface {
	TokenID(tok []byte) (uint32, bool)
}

// TokScratch holds an emitter's reusable buffers. The zero value is
// ready to use; reusing one across calls amortizes buffer growth to
// zero allocations per value.
type TokScratch struct {
	buf    []byte  // lowered bytes of the value (or of one word)
	starts []int32 // rune-start offsets into buf (q-gram windows)
}

// IDEmitter is the ID-native counterpart of Tokenizer. AppendTokenIDs
// appends the token IDs of s (in token order, duplicates preserved) to
// dst and returns the extended slice. ok=false means the sink rejected
// a token (sealed dictionary miss); dst may then hold a partial prefix
// and the caller must discard it.
type IDEmitter interface {
	AppendTokenIDs(dst []uint32, s string, sink TokenSink, sc *TokScratch) ([]uint32, bool)
}

// EmitterFor returns the IDEmitter that tokenizes values into dp's
// token space, or ok=false when dp's tokenizer has no byte-scan path
// (then dp's profiles cannot be encoded, and callers score raw
// strings).
func EmitterFor(dp DictProfiler) (IDEmitter, bool) {
	switch v := dp.(type) {
	case Jaccard:
		return emitterForTokenizer(orWhitespace(v.Tok))
	case Dice:
		return emitterForTokenizer(orWhitespace(v.Tok))
	case Overlap:
		return emitterForTokenizer(orWhitespace(v.Tok))
	case Cosine:
		return emitterForTokenizer(orWhitespace(v.Tok))
	case Trigram:
		return emitterForTokenizer(trigramTok)
	case TFIDF:
		return emitterForTokenizer(v.Corpus.Tokenizer())
	case SoftTFIDF:
		return emitterForTokenizer(v.Corpus.Tokenizer())
	case Soundex:
		return soundexEmitter{}, true
	}
	return nil, false
}

func emitterForTokenizer(tok Tokenizer) (IDEmitter, bool) {
	switch t := tok.(type) {
	case Whitespace:
		return wsEmitter{}, true
	case QGram:
		return qgramEmitter{q: t.Q, pad: t.Pad}, true
	}
	return nil, false
}

// wsEmitter is the ID path of Whitespace: split on runs of
// non-alphanumerics, lowercase. Equivalence with
// FieldsFunc(ToLower(s), ...) holds because strings.ToLower applies
// unicode.ToLower rune by rune (a 1:1 simple mapping) and the separator
// predicate is case-invariant under it; invalid UTF-8 decodes to
// U+FFFD — a separator — on both paths. ASCII bytes take a table-free
// fast path.
type wsEmitter struct{}

func (wsEmitter) AppendTokenIDs(dst []uint32, s string, sink TokenSink, sc *TokScratch) ([]uint32, bool) {
	buf := sc.buf[:0]
	ok := true
	flush := func() bool {
		if len(buf) == 0 {
			return true
		}
		id, idOK := sink.TokenID(buf)
		if !idOK {
			return false
		}
		dst = append(dst, id)
		buf = buf[:0]
		return true
	}
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			i++
			switch {
			case c >= 'a' && c <= 'z' || c >= '0' && c <= '9':
				buf = append(buf, c)
			case c >= 'A' && c <= 'Z':
				buf = append(buf, c+('a'-'A'))
			default:
				if !flush() {
					ok = false
				}
			}
		} else {
			r, size := utf8.DecodeRuneInString(s[i:])
			i += size
			r = unicode.ToLower(r)
			if unicode.IsLetter(r) || unicode.IsDigit(r) {
				buf = utf8.AppendRune(buf, r)
			} else if !flush() {
				ok = false
			}
		}
		if !ok {
			break
		}
	}
	if ok {
		ok = flush()
	}
	sc.buf = buf[:0]
	return dst, ok
}

// qgramEmitter is the ID path of QGram: lowercase into scratch while
// recording rune-start offsets, pad with \x01 sentinels, then hand each
// q-rune byte window to the sink. The windows are byte slices of the
// lowered buffer — exactly the bytes string(r[i:i+n]) would allocate.
type qgramEmitter struct {
	q   int
	pad bool
}

func (e qgramEmitter) AppendTokenIDs(dst []uint32, s string, sink TokenSink, sc *TokScratch) ([]uint32, bool) {
	n := e.q
	if n <= 0 {
		n = 3
	}
	buf, starts := sc.buf[:0], sc.starts[:0]
	if e.pad {
		for k := 0; k < n-1; k++ {
			starts = append(starts, int32(len(buf)))
			buf = append(buf, '\x01')
		}
	}
	for i := 0; i < len(s); {
		starts = append(starts, int32(len(buf)))
		if c := s[i]; c < utf8.RuneSelf {
			i++
			if c >= 'A' && c <= 'Z' {
				c += 'a' - 'A'
			}
			buf = append(buf, c)
		} else {
			r, size := utf8.DecodeRuneInString(s[i:])
			i += size
			buf = utf8.AppendRune(buf, unicode.ToLower(r))
		}
	}
	if e.pad {
		for k := 0; k < n-1; k++ {
			starts = append(starts, int32(len(buf)))
			buf = append(buf, '\x01')
		}
	}
	starts = append(starts, int32(len(buf)))
	sc.buf, sc.starts = buf, starts
	runes := len(starts) - 1
	if runes < n {
		if runes == 0 {
			return dst, true
		}
		id, ok := sink.TokenID(buf)
		if !ok {
			return dst, false
		}
		return append(dst, id), true
	}
	for i := 0; i+n <= runes; i++ {
		id, ok := sink.TokenID(buf[starts[i]:starts[i+n]])
		if !ok {
			return dst, false
		}
		dst = append(dst, id)
	}
	return dst, true
}

// soundexEmitter is the ID path of Soundex: whitespace-scan words like
// wsEmitter, but reduce each word to its 4-byte Soundex code before
// sinking. Codes, not words, are the dictionary's token space.
type soundexEmitter struct{}

func (soundexEmitter) AppendTokenIDs(dst []uint32, s string, sink TokenSink, sc *TokScratch) ([]uint32, bool) {
	buf := sc.buf[:0]
	ok := true
	var code [4]byte
	flush := func() bool {
		if len(buf) == 0 {
			return true
		}
		soundexCodeBytes(buf, &code)
		id, idOK := sink.TokenID(code[:])
		if !idOK {
			return false
		}
		dst = append(dst, id)
		buf = buf[:0]
		return true
	}
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			i++
			switch {
			case c >= 'a' && c <= 'z' || c >= '0' && c <= '9':
				buf = append(buf, c)
			case c >= 'A' && c <= 'Z':
				buf = append(buf, c+('a'-'A'))
			default:
				if !flush() {
					ok = false
				}
			}
		} else {
			r, size := utf8.DecodeRuneInString(s[i:])
			i += size
			r = unicode.ToLower(r)
			if unicode.IsLetter(r) || unicode.IsDigit(r) {
				buf = utf8.AppendRune(buf, r)
			} else if !flush() {
				ok = false
			}
		}
		if !ok {
			break
		}
	}
	if ok {
		ok = flush()
	}
	sc.buf = buf[:0]
	return dst, ok
}

// upperLetter decodes the rune at word[i], uppercases it, and returns
// it if it lands in A-Z (0 otherwise) plus the encoded size consumed.
// Rune-wise uppercasing matters: a few non-ASCII runes uppercase INTO
// A-Z (U+0131 dotless i -> I, U+017F long s -> S), exactly as
// strings.ToUpper inside SoundexCode maps them.
func upperLetter(word []byte, i int) (byte, int) {
	c := word[i]
	if c < utf8.RuneSelf {
		if c >= 'a' && c <= 'z' {
			return c - ('a' - 'A'), 1
		}
		if c >= 'A' && c <= 'Z' {
			return c, 1
		}
		return 0, 1
	}
	r, size := utf8.DecodeRune(word[i:])
	r = unicode.ToUpper(r)
	if r >= 'A' && r <= 'Z' {
		return byte(r), size
	}
	return 0, size
}

// soundexCodeBytes is SoundexCode over a byte-slice word, writing the
// 4-byte code into code without allocating. Byte iteration over the
// uppercased string in SoundexCode only ever matches single-byte A-Z
// (multi-byte runes contribute no bytes in that range after a 1:1 case
// mapping), so rune-wise iteration that skips non-A-Z results is
// equivalent.
func soundexCodeBytes(word []byte, code *[4]byte) {
	var first byte
	i := 0
	for i < len(word) {
		c, size := upperLetter(word, i)
		i += size
		if c != 0 {
			first = c
			break
		}
	}
	if first == 0 {
		copy(code[:], "0000")
		return
	}
	code[0], code[1], code[2], code[3] = first, '0', '0', '0'
	n := 1
	prev := soundexDigit(first)
	for i < len(word) && n < 4 {
		c, size := upperLetter(word, i)
		i += size
		if c == 0 {
			// Non-letters are skipped without touching adjacency.
			continue
		}
		d := soundexDigit(c)
		switch {
		case d == 0:
			if c != 'H' && c != 'W' {
				prev = 0
			}
		case d != prev:
			code[n] = d
			n++
			prev = d
		}
	}
}
