package sim

import (
	"math/bits"
	"unicode/utf8"
)

// Edit-distance-family similarities: exact match, Levenshtein, Jaro and
// Jaro-Winkler. All operate on runes so multi-byte input behaves sanely.

// ExactMatch returns 1 if the two strings are byte-identical, else 0.
type ExactMatch struct{}

// Name implements Func.
func (ExactMatch) Name() string { return "exact_match" }

// Sim implements Func.
func (ExactMatch) Sim(a, b string) float64 {
	if a == b {
		return 1
	}
	return 0
}

// Levenshtein is the normalized Levenshtein similarity
// 1 - dist(a,b)/max(|a|,|b|).
type Levenshtein struct{}

// Name implements Func.
func (Levenshtein) Name() string { return "levenshtein" }

// Sim implements Func.
func (Levenshtein) Sim(a, b string) float64 {
	if a == b {
		return 1
	}
	ra, rb := []rune(a), []rune(b)
	la, lb := len(ra), len(rb)
	if la == 0 || lb == 0 {
		return 0
	}
	d := levenshteinDistance(ra, rb)
	return 1 - float64(d)/float64(maxInt(la, lb))
}

// myersMinPattern is the pattern length below which the rolling-row DP
// beats Myers' scan (bitmask setup amortizes poorly on tiny strings).
const myersMinPattern = 5

// levenshteinDistance computes the exact edit distance, picking the
// cheapest exact kernel by input shape: Myers' bit-parallel scan
// (O(⌈m/64⌉·n) words) once the pattern is long enough to amortize its
// setup, the rolling-row DP otherwise. Both are exact, so the choice
// never changes a score.
func levenshteinDistance(a, b []rune) int {
	if len(a) < len(b) {
		a, b = b, a
	}
	// b is the shorter string (the pattern).
	switch {
	case len(b) == 0:
		return len(a)
	case len(b) < myersMinPattern:
		return levenshteinDP(a, b)
	case len(b) <= 64:
		return myersDistance64(b, a)
	default:
		return myersDistanceBlocks(b, a)
	}
}

// EditDistanceDP computes the edit distance with the rolling-row DP
// reference kernel, bypassing the Myers dispatch. Exported for
// differential benchmarks; Levenshtein.Sim is the production path.
func EditDistanceDP(a, b string) int { return levenshteinDP([]rune(a), []rune(b)) }

// EditDistanceMyers computes the edit distance with the bit-parallel
// Myers kernels regardless of the pattern-length cutover. Exported for
// differential benchmarks; Levenshtein.Sim is the production path.
func EditDistanceMyers(a, b string) int {
	ra, rb := []rune(a), []rune(b)
	if len(ra) < len(rb) {
		ra, rb = rb, ra
	}
	switch {
	case len(rb) == 0:
		return len(ra)
	case len(rb) <= 64:
		return myersDistance64(rb, ra)
	default:
		return myersDistanceBlocks(rb, ra)
	}
}

// levenshteinDP computes edit distance with a rolling single-row DP.
// It is the differential-test reference for the Myers kernels and the
// fast path for very short strings.
func levenshteinDP(a, b []rune) int {
	if len(a) < len(b) {
		a, b = b, a
	}
	// b is the shorter string; row has len(b)+1 entries, on the stack
	// for the short patterns the dispatcher sends here.
	var stack [myersMinPattern]int
	var row []int
	if len(b) < myersMinPattern {
		row = stack[:len(b)+1]
	} else {
		row = make([]int, len(b)+1)
	}
	for j := range row {
		row[j] = j
	}
	for i := 1; i <= len(a); i++ {
		prev := row[0] // row[i-1][0]
		row[0] = i
		for j := 1; j <= len(b); j++ {
			cur := row[j]
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			best := prev + cost           // substitute
			if up := cur + 1; up < best { // delete
				best = up
			}
			if left := row[j-1] + 1; left < best { // insert
				best = left
			}
			row[j] = best
			prev = cur
		}
	}
	return row[len(b)]
}

// asciiRunes reports whether every rune of p is ASCII, so p can index
// a 128-row match-vector table.
func asciiRunes(p []rune) bool {
	for _, r := range p {
		if uint32(r) >= utf8.RuneSelf {
			return false
		}
	}
	return true
}

// myersDistance64 is Myers' bit-parallel edit distance for patterns of
// at most 64 runes: the DP column is two 64-bit delta vectors (Pv/Mv)
// advanced with ~15 word operations per text rune. ASCII patterns use
// a stack-allocated match-vector table; otherwise a rune map.
func myersDistance64(pattern, text []rune) int {
	m := len(pattern)
	ascii := asciiRunes(pattern)
	var asciiPeq [128]uint64
	var peq map[rune]uint64
	if ascii {
		for i, r := range pattern {
			asciiPeq[r] |= 1 << uint(i)
		}
	} else {
		peq = make(map[rune]uint64, m)
		for i, r := range pattern {
			peq[r] |= 1 << uint(i)
		}
	}
	pv, mv := ^uint64(0), uint64(0)
	score := m
	last := uint64(1) << uint(m-1)
	for _, r := range text {
		var eq uint64
		if ascii {
			if r < 128 {
				eq = asciiPeq[r]
			}
		} else {
			eq = peq[r]
		}
		xv := eq | mv
		xh := (((eq & pv) + pv) ^ pv) | eq
		ph := mv | ^(xh | pv)
		mh := pv & xh
		if ph&last != 0 {
			score++
		} else if mh&last != 0 {
			score--
		}
		ph = ph<<1 | 1
		mh <<= 1
		pv = mh | ^(xv | ph)
		mv = ph & xv
	}
	return score
}

// myersStackWords is the widest pattern, in 64-rune words, whose
// blocked-Myers state fits the kernel's stack buffer: patterns of up to
// 256 runes allocate nothing, longer ones allocate it once.
const myersStackWords = 4

// myersDistanceBlocks is the blocked (multi-word) Myers kernel for
// patterns longer than 64 runes: ⌈m/64⌉ Pv/Mv word pairs per column,
// with the horizontal delta carried block to block (Hyyrö's
// formulation). The score is tracked at the pattern's last row, whose
// bit lives in the top block; bits above it start as +1 vertical
// deltas and never match, so they cannot influence rows at or below
// the last. ASCII patterns index a flat 128-row match-vector table;
// other patterns keep a rune map.
func myersDistanceBlocks(pattern, text []rune) int {
	m := len(pattern)
	words := (m + 63) / 64
	ascii := asciiRunes(pattern)
	// One buffer holds Pv, Mv, the all-zero row of text runes absent
	// from the pattern and, for ASCII patterns, the match table.
	n := 3 * words
	if ascii {
		n += utf8.RuneSelf * words
	}
	var stack [(3 + utf8.RuneSelf) * myersStackWords]uint64
	var buf []uint64
	if words <= myersStackWords {
		buf = stack[:n]
	} else {
		buf = make([]uint64, n)
	}
	pv, mv, zero, table := buf[:words], buf[words:2*words], buf[2*words:3*words], buf[3*words:]
	var peq map[rune][]uint64
	if ascii {
		for i, r := range pattern {
			table[int(r)*words+i/64] |= 1 << uint(i%64)
		}
	} else {
		peq = make(map[rune][]uint64, minInt(m, 64))
		for i, r := range pattern {
			pe := peq[r]
			if pe == nil {
				pe = make([]uint64, words)
				peq[r] = pe
			}
			pe[i/64] |= 1 << uint(i%64)
		}
	}
	for k := range pv {
		pv[k] = ^uint64(0)
	}
	score := m
	lastBit := uint64(1) << uint((m-1)%64)
	for _, r := range text {
		eqs := zero
		if ascii {
			if uint32(r) < utf8.RuneSelf {
				eqs = table[int(r)*words : (int(r)+1)*words]
			}
		} else if pe := peq[r]; pe != nil {
			eqs = pe
		}
		hin := 1 // the DP's first row increases left to right
		for k := 0; k < words; k++ {
			eq := eqs[k]
			pvk, mvk := pv[k], mv[k]
			xv := eq | mvk
			if hin < 0 {
				eq |= 1
			}
			xh := (((eq & pvk) + pvk) ^ pvk) | eq
			ph := mvk | ^(xh | pvk)
			mh := pvk & xh
			hb := uint64(1) << 63
			if k == words-1 {
				hb = lastBit
			}
			hout := 0
			if ph&hb != 0 {
				hout = 1
			} else if mh&hb != 0 {
				hout = -1
			}
			ph <<= 1
			mh <<= 1
			if hin > 0 {
				ph |= 1
			} else if hin < 0 {
				mh |= 1
			}
			pv[k] = mh | ^(xv | ph)
			mv[k] = ph & xv
			hin = hout
		}
		score += hin
	}
	return score
}

// Jaro is the Jaro string similarity.
type Jaro struct{}

// Name implements Func.
func (Jaro) Name() string { return "jaro" }

// Sim implements Func.
func (Jaro) Sim(a, b string) float64 {
	var ba, bb [jaroMaskRunes]rune
	return jaro(decodeRunes(&ba, a), decodeRunes(&bb, b))
}

// jaroMaskRunes is the longest input, in runes, the mask kernel takes:
// one uint64 holds a side's matched flags.
const jaroMaskRunes = 64

// decodeRunes returns s as runes, decoded into buf when s has at most
// jaroMaskRunes runes (so callers can keep buf on the stack) and
// converted with []rune(s) otherwise. Both decode invalid UTF-8 the
// same way.
func decodeRunes(buf *[jaroMaskRunes]rune, s string) []rune {
	n := 0
	for _, r := range s {
		if n == len(buf) {
			return []rune(s)
		}
		buf[n] = r
		n++
	}
	return buf[:n]
}

// jaro dispatches by length: the mask kernel when both sides have at
// most jaroMaskRunes runes, the flag-slice kernel beyond.
func jaro(a, b []rune) float64 {
	if len(a) <= jaroMaskRunes && len(b) <= jaroMaskRunes {
		return jaroMask(a, b)
	}
	return jaroRunes(a, b)
}

// jaroMask is the allocation-free Jaro kernel for inputs of at most
// jaroMaskRunes runes: the matched flags of each side live in one
// uint64 mask, and the transposition scan walks the two masks' set
// bits in step. It finds the same matches in the same order as
// jaroRunes, its reference.
func jaroMask(a, b []rune) float64 {
	la, lb := len(a), len(b)
	if la == 0 && lb == 0 {
		return 1
	}
	if la == 0 || lb == 0 {
		return 0
	}
	window := maxInt(la, lb)/2 - 1
	if window < 0 {
		window = 0
	}
	var aMatched, bMatched uint64
	matches := 0
	for i := 0; i < la; i++ {
		hi := minInt(lb-1, i+window)
		for j := maxInt(0, i-window); j <= hi; j++ {
			if bMatched&(1<<uint(j)) != 0 || a[i] != b[j] {
				continue
			}
			aMatched |= 1 << uint(i)
			bMatched |= 1 << uint(j)
			matches++
			break
		}
	}
	if matches == 0 {
		return 0
	}
	transpositions := 0
	for ; aMatched != 0; aMatched, bMatched = aMatched&(aMatched-1), bMatched&(bMatched-1) {
		if a[bits.TrailingZeros64(aMatched)] != b[bits.TrailingZeros64(bMatched)] {
			transpositions++
		}
	}
	return jaroScore(matches, transpositions, la, lb)
}

// jaroRunes is the flag-slice Jaro kernel: the path for input longer
// than jaroMaskRunes runes, and the differential reference of
// jaroMask.
func jaroRunes(a, b []rune) float64 {
	la, lb := len(a), len(b)
	if la == 0 && lb == 0 {
		return 1
	}
	if la == 0 || lb == 0 {
		return 0
	}
	window := maxInt(la, lb)/2 - 1
	if window < 0 {
		window = 0
	}
	aMatched := make([]bool, la)
	bMatched := make([]bool, lb)
	matches := 0
	for i := 0; i < la; i++ {
		lo := maxInt(0, i-window)
		hi := minInt(lb-1, i+window)
		for j := lo; j <= hi; j++ {
			if bMatched[j] || a[i] != b[j] {
				continue
			}
			aMatched[i] = true
			bMatched[j] = true
			matches++
			break
		}
	}
	if matches == 0 {
		return 0
	}
	// Count transpositions among matched characters.
	transpositions := 0
	j := 0
	for i := 0; i < la; i++ {
		if !aMatched[i] {
			continue
		}
		for !bMatched[j] {
			j++
		}
		if a[i] != b[j] {
			transpositions++
		}
		j++
	}
	return jaroScore(matches, transpositions, la, lb)
}

// jaroScore is the Jaro formula both kernels share, so their scores
// agree bit for bit whenever their counts do.
func jaroScore(matches, transpositions, la, lb int) float64 {
	m := float64(matches)
	t := float64(transpositions) / 2
	return (m/float64(la) + m/float64(lb) + (m-t)/m) / 3
}

// JaroWinkler is Jaro similarity boosted by a common-prefix bonus.
type JaroWinkler struct {
	// Prefix scaling factor; 0 means the standard 0.1.
	Scale float64
	// Maximum prefix length considered; 0 means the standard 4.
	MaxPrefix int
}

// Name implements Func.
func (JaroWinkler) Name() string { return "jaro_winkler" }

// Sim implements Func.
func (jw JaroWinkler) Sim(a, b string) float64 {
	var ba, bb [jaroMaskRunes]rune
	ra, rb := decodeRunes(&ba, a), decodeRunes(&bb, b)
	return jw.boost(jaro(ra, rb), ra, rb)
}

// boost applies the common-prefix bonus of ra and rb to their Jaro
// score j.
func (jw JaroWinkler) boost(j float64, ra, rb []rune) float64 {
	scale := jw.Scale
	if scale == 0 {
		scale = 0.1
	}
	maxPrefix := jw.MaxPrefix
	if maxPrefix == 0 {
		maxPrefix = 4
	}
	prefix := 0
	for prefix < len(ra) && prefix < len(rb) && prefix < maxPrefix && ra[prefix] == rb[prefix] {
		prefix++
	}
	return clamp01(j + float64(prefix)*scale*(1-j))
}
