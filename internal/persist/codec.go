package persist

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"strings"

	"rulematch/internal/bitmap"
	"rulematch/internal/core"
	"rulematch/internal/rule"
	"rulematch/internal/table"
)

// The v3 payload is columnar and canonical: a session state has exactly
// one encoding. Integers are minimal varints — uvarints for counts,
// lengths and indices, zig-zag varints where a value or a delta may be
// negative — and a string is a uvarint length and its bytes. The
// sections, in order:
//
//  1. the table names, A then B;
//  2. seq, epoch, the function's DSL source, the block spec and the
//     six core.Stats counters;
//  3. the pair count, then each pair's A and B as zig-zag deltas from
//     the previous pair's;
//  4. the rule count and each rule's predicate count, then Matched,
//     every rule's RuleTrue and every rule's PredFalse bitmaps, each
//     in the bitmap package's container encoding at the pair count's
//     length;
//  5. the memo row count, then per row, in ascending feature-key order,
//     the feature (similarity, attribute A, attribute B), its presence
//     bitmap and its values (appendValues);
//  6. a data-state byte, 0 or 1; after a 1, the base lengths of A and
//     B, A's and B's appended records (ID and values) and A's and B's
//     tombstoned record indices as ascending gaps.

// maxExpansion bounds what a payload may declare: its pairs, bitmaps
// and dense memo rows may together take at most maxExpansion bytes of
// memory per payload byte. A real session's state takes a few: the
// products-0.05 session of perfbench's debug-loop decodes to about 4×
// its payload, since its memo rows are mostly dense.
const maxExpansion = 64

// maxDict is the largest dictionary a memo row's values use.
const maxDict = 1 << 16

// memoRow is one feature's memo row: Vals is dense over the pairs, and
// Vals[pi] is a value only where Present has bit pi.
type memoRow struct {
	Feature rule.Feature
	Present *bitmap.Bits
	Vals    []float64
}

// compareKeys orders memo rows by feature key, the payload's order.
func compareKeys(x, y memoRow) int { return strings.Compare(x.Feature.Key(), y.Feature.Key()) }

// snapshot is a session's state as the payload carries it.
type snapshot struct {
	TableA, TableB string // table names, to catch obvious mix-ups
	// Seq is the journal sequence number the snapshot covers: every
	// edit record with Seq <= this value is already folded into the
	// bitmaps and memo. Zero for standalone snapshots.
	Seq uint64
	// Epoch is the replication epoch the snapshot was written under
	// (see internal/wal). Zero for standalone snapshots.
	Epoch     uint64
	Function  string // DSL source; float thresholds round-trip exactly
	BlockSpec string // re-creates the delta blocker; empty without one
	Stats     core.Stats
	Pairs     []table.Pair
	Matched   *bitmap.Bits
	RuleTrue  []*bitmap.Bits
	PredFalse [][]*bitmap.Bits
	Memo      []memoRow // in ascending feature-key order

	// Data-side incrementality. The caller reloads only the base
	// tables; records appended through Session.AddRecords are
	// snapshot-authoritative extras.
	HasDataState       bool
	BaseLenA, BaseLenB int
	ExtraA, ExtraB     []table.Record // records past the base lengths
	DeadA, DeadB       []int32        // tombstoned record indices, ascending
}

// statFields lists the Stats counters in payload order.
func statFields(s *core.Stats) []*int64 {
	return []*int64{&s.FeatureComputes, &s.MemoHits, &s.ValueCacheHits, &s.PredEvals, &s.RuleEvals, &s.PairEvals}
}

// appendPayload appends snap's payload encoding to dst.
func appendPayload(dst []byte, snap *snapshot) []byte {
	dst = appendString(dst, snap.TableA)
	dst = appendString(dst, snap.TableB)

	dst = binary.AppendUvarint(dst, snap.Seq)
	dst = binary.AppendUvarint(dst, snap.Epoch)
	dst = appendString(dst, snap.Function)
	dst = appendString(dst, snap.BlockSpec)
	for _, c := range statFields(&snap.Stats) {
		dst = binary.AppendVarint(dst, *c)
	}

	dst = binary.AppendUvarint(dst, uint64(len(snap.Pairs)))
	var prev table.Pair
	for _, p := range snap.Pairs {
		dst = binary.AppendVarint(dst, int64(p.A)-int64(prev.A))
		dst = binary.AppendVarint(dst, int64(p.B)-int64(prev.B))
		prev = p
	}

	dst = binary.AppendUvarint(dst, uint64(len(snap.RuleTrue)))
	for _, pf := range snap.PredFalse {
		dst = binary.AppendUvarint(dst, uint64(len(pf)))
	}
	dst = snap.Matched.AppendEncoded(dst)
	for _, b := range snap.RuleTrue {
		dst = b.AppendEncoded(dst)
	}
	for _, pf := range snap.PredFalse {
		for _, b := range pf {
			dst = b.AppendEncoded(dst)
		}
	}

	dst = binary.AppendUvarint(dst, uint64(len(snap.Memo)))
	var vc valueCoder
	for _, row := range snap.Memo {
		dst = appendString(dst, row.Feature.Sim)
		dst = appendString(dst, row.Feature.AttrA)
		dst = appendString(dst, row.Feature.AttrB)
		dst = row.Present.AppendEncoded(dst)
		dst = vc.appendValues(dst, row.Vals, row.Present)
	}

	if !snap.HasDataState {
		return append(dst, 0)
	}
	dst = append(dst, 1)
	dst = binary.AppendUvarint(dst, uint64(snap.BaseLenA))
	dst = binary.AppendUvarint(dst, uint64(snap.BaseLenB))
	for _, recs := range [][]table.Record{snap.ExtraA, snap.ExtraB} {
		dst = binary.AppendUvarint(dst, uint64(len(recs)))
		for _, r := range recs {
			dst = appendString(dst, r.ID)
			dst = binary.AppendUvarint(dst, uint64(len(r.Values)))
			for _, v := range r.Values {
				dst = appendString(dst, v)
			}
		}
	}
	for _, dead := range [][]int32{snap.DeadA, snap.DeadB} {
		dst = binary.AppendUvarint(dst, uint64(len(dead)))
		next := int32(0)
		for _, i := range dead {
			dst = binary.AppendUvarint(dst, uint64(i-next))
			next = i + 1
		}
	}
	return dst
}

func appendString(dst []byte, s string) []byte {
	return append(binary.AppendUvarint(dst, uint64(len(s))), s...)
}

// valueCoder holds the scratch space appendValues reuses across rows.
type valueCoder struct {
	index map[uint64]int32 // value bits → position in keys
	keys  []uint64         // distinct value bits, in order of appearance
	pos   []int32          // per present value, its position in keys
	order []int32          // positions in keys, by ascending bits
	code  []uint16         // position in keys → dictionary code
}

// appendValues appends the values of a memo row's m present pairs, in
// pair order. Where it is smaller, they are dictionary-coded on their
// float64 bits: uvarint d, the d distinct bit patterns ascending as
// 8-byte little-endian words, then each value's code — no bytes when d
// is 1, one byte when d ≤ 256, two little-endian bytes when d ≤ 65536.
// Otherwise a 0 and the m values' raw bits, 8 little-endian bytes each.
func (vc *valueCoder) appendValues(dst []byte, vals []float64, present *bitmap.Bits) []byte {
	m := present.Count()
	if !vc.collect(vals, present, m) {
		dst = append(dst, 0)
		for pi := present.NextSet(0); pi >= 0; pi = present.NextSet(pi + 1) {
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(vals[pi]))
		}
		return dst
	}
	d := len(vc.keys)
	vc.order = vc.order[:0]
	for p := range d {
		vc.order = append(vc.order, int32(p))
	}
	slices.SortFunc(vc.order, func(x, y int32) int { return cmp.Compare(vc.keys[x], vc.keys[y]) })
	vc.code = slices.Grow(vc.code[:0], d)[:d]
	dst = binary.AppendUvarint(dst, uint64(d))
	for c, p := range vc.order {
		vc.code[p] = uint16(c)
		dst = binary.LittleEndian.AppendUint64(dst, vc.keys[p])
	}
	switch codeWidth(d) {
	case 1:
		for _, p := range vc.pos {
			dst = append(dst, byte(vc.code[p]))
		}
	case 2:
		for _, p := range vc.pos {
			dst = binary.LittleEndian.AppendUint16(dst, vc.code[p])
		}
	}
	return dst
}

// collect gathers a row's distinct values and each value's position
// among them, and reports whether a dictionary pays: it stops, false,
// at the first distinct value that makes the dictionary no smaller
// than the m raw values.
func (vc *valueCoder) collect(vals []float64, present *bitmap.Bits, m int) bool {
	if vc.index == nil {
		vc.index = make(map[uint64]int32)
	}
	clear(vc.index)
	vc.keys, vc.pos = vc.keys[:0], vc.pos[:0]
	last, lastPos := uint64(0), int32(-1)
	for pi := present.NextSet(0); pi >= 0; pi = present.NextSet(pi + 1) {
		v := math.Float64bits(vals[pi])
		if lastPos < 0 || v != last {
			p, ok := vc.index[v]
			if !ok {
				if d := len(vc.keys) + 1; d > maxDict || dictSize(d, m) >= 1+8*m {
					return false
				}
				p = int32(len(vc.keys))
				vc.index[v] = p
				vc.keys = append(vc.keys, v)
			}
			last, lastPos = v, p
		}
		vc.pos = append(vc.pos, lastPos)
	}
	return true
}

// dictSize is the encoded size of m values coded on a d-value dictionary.
func dictSize(d, m int) int { return uvarintLen(uint64(d)) + 8*d + codeWidth(d)*m }

// codeWidth is the byte width of the codes of a d-value dictionary.
func codeWidth(d int) int {
	switch {
	case d <= 1:
		return 0
	case d <= 256:
		return 1
	default:
		return 2
	}
}

// uvarintLen is the length of the minimal uvarint of v.
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// decodePayload decodes a payload into a snapshot. It checks every
// count against the bytes left and caps the declared state at
// maxExpansion × len(p) bytes before allocating it; strings are copied,
// so nothing decoded aliases p.
func decodePayload(p []byte) (*snapshot, error) {
	r := &reader{buf: p, budget: maxExpansion * uint64(len(p))}
	snap := &snapshot{}

	r.section = "names"
	snap.TableA, snap.TableB = r.string(), r.string()

	r.section = "header"
	snap.Seq, snap.Epoch = r.uvarint(), r.uvarint()
	snap.Function, snap.BlockSpec = r.string(), r.string()
	for _, c := range statFields(&snap.Stats) {
		*c = r.varint()
	}

	r.section = "pairs"
	n := r.count("pairs", 2)
	r.claim(uint64(n), 8)
	if r.err != nil {
		return nil, r.err
	}
	snap.Pairs = make([]table.Pair, n)
	var a, b int64
	for i := range snap.Pairs {
		a += r.varint()
		b += r.varint()
		if a < 0 || b < 0 || a > math.MaxInt32 || b > math.MaxInt32 {
			r.fail("pair %d (%d,%d) out of range", i, a, b)
			break
		}
		snap.Pairs[i] = table.Pair{A: int32(a), B: int32(b)}
	}

	r.section = "bitmaps"
	words := uint64(n+63) / 64
	preds := make([]int, r.count("rules", 1))
	bitmaps := 1 + len(preds)
	for ri := range preds {
		preds[ri] = r.count("predicates", 1)
		bitmaps += preds[ri]
	}
	if bitmaps > len(r.buf) { // each takes a byte at least
		r.fail("%d bitmaps in %d bytes", bitmaps, len(r.buf))
	}
	r.claim(uint64(bitmaps), 8*words)
	if r.err != nil {
		return nil, r.err
	}
	snap.Matched = r.bits(n)
	snap.RuleTrue = make([]*bitmap.Bits, len(preds))
	for ri := range snap.RuleTrue {
		snap.RuleTrue[ri] = r.bits(n)
	}
	snap.PredFalse = make([][]*bitmap.Bits, len(preds))
	for ri, k := range preds {
		snap.PredFalse[ri] = make([]*bitmap.Bits, k)
		for pj := range snap.PredFalse[ri] {
			snap.PredFalse[ri][pj] = r.bits(n)
		}
	}

	r.section = "memo"
	// A row takes five bytes at least: three string lengths, a
	// presence container and a dictionary size.
	rows := r.count("memo rows", 5)
	r.claim(uint64(rows), 8*uint64(n)+8*words)
	if r.err != nil {
		return nil, r.err
	}
	snap.Memo = make([]memoRow, rows)
	prevKey := ""
	for k := range snap.Memo {
		row := &snap.Memo[k]
		row.Feature = rule.Feature{Sim: r.string(), AttrA: r.string(), AttrB: r.string()}
		key := row.Feature.Key()
		if k > 0 && key <= prevKey {
			if key == prevKey {
				r.fail("duplicate memo row for feature %s", key)
			} else {
				r.fail("memo row %s after %s", key, prevKey)
			}
		}
		prevKey = key
		row.Present = r.bits(n)
		if r.err != nil {
			return nil, r.err
		}
		row.Vals = r.values(row.Present, n)
	}

	r.section = "data state"
	switch flag := r.byte(); flag {
	case 0:
	case 1:
		snap.HasDataState = true
		snap.BaseLenA, snap.BaseLenB = r.index(), r.index()
		snap.ExtraA, snap.ExtraB = r.records(), r.records()
		snap.DeadA, snap.DeadB = r.indices(), r.indices()
	default:
		r.fail("flag %d", flag)
	}
	if r.err == nil && len(r.buf) > 0 {
		r.fail("%d trailing bytes", len(r.buf))
	}
	if r.err != nil {
		return nil, r.err
	}
	return snap, nil
}

// reader decodes a payload front to back. The first error sticks:
// later reads return zero values, so a decode runs to its next error
// check without further branching.
type reader struct {
	buf     []byte // the bytes not yet read
	section string // the section being read, for error messages
	budget  uint64 // the bytes of state the payload may still declare
	err     error
}

func (r *reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("persist: corrupt snapshot: %s: %s", r.section, fmt.Sprintf(format, args...))
	}
	r.buf = nil
}

// claim charges k items of size bytes each against the budget.
func (r *reader) claim(k, size uint64) {
	if size > 0 && k > r.budget/size {
		r.fail("%d × %d bytes of state exceeds %d× the payload", k, size, maxExpansion)
		return
	}
	r.budget -= k * size
}

func (r *reader) uvarint() uint64 {
	v, k := binary.Uvarint(r.buf)
	if k <= 0 || (k > 1 && r.buf[k-1] == 0) {
		r.fail("truncated or malformed varint")
		return 0
	}
	r.buf = r.buf[k:]
	return v
}

// varint reads a zig-zag varint.
func (r *reader) varint() int64 {
	u := r.uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

func (r *reader) byte() byte {
	if len(r.buf) == 0 {
		r.fail("truncated")
		return 0
	}
	c := r.buf[0]
	r.buf = r.buf[1:]
	return c
}

// count reads a count of items that take at least size bytes each,
// refusing one the bytes left cannot hold.
func (r *reader) count(what string, size int) int {
	v := r.uvarint()
	if v > uint64(len(r.buf)/size) {
		r.fail("%d %s in %d bytes", v, what, len(r.buf))
		return 0
	}
	return int(v)
}

// index reads a record index or table length.
func (r *reader) index() int {
	v := r.uvarint()
	if v > math.MaxInt32 {
		r.fail("index %d out of range", v)
		return 0
	}
	return int(v)
}

func (r *reader) string() string {
	k := r.count("string bytes", 1)
	s := string(r.buf[:k])
	r.buf = r.buf[k:]
	return s
}

// bits decodes an n-bit bitmap.
func (r *reader) bits(n int) *bitmap.Bits {
	if r.err != nil {
		return nil
	}
	b, rest, err := bitmap.Decode(r.buf, n)
	if err != nil {
		r.fail("%v", err)
		return nil
	}
	r.buf = rest
	return b
}

// values decodes the values appendValues wrote for present into a
// dense row of n values.
func (r *reader) values(present *bitmap.Bits, n int) []float64 {
	m := present.Count()
	if m == 0 {
		r.fail("memo row with no values")
		return nil
	}
	d := r.uvarint()
	if d > uint64(min(m, maxDict)) {
		r.fail("dictionary of %d values for %d present pairs", d, m)
		return nil
	}
	width := codeWidth(int(d))
	need := 8 * m
	if d > 0 {
		need = 8*int(d) + width*m
	}
	if r.err != nil || len(r.buf) < need {
		r.fail("truncated values")
		return nil
	}
	vals := make([]float64, n)
	data := r.buf[:need]
	r.buf = r.buf[need:]
	if d == 0 {
		for pi := present.NextSet(0); pi >= 0; pi = present.NextSet(pi + 1) {
			vals[pi] = math.Float64frombits(binary.LittleEndian.Uint64(data))
			data = data[8:]
		}
		return vals
	}
	dict := make([]float64, d)
	for c := range dict {
		v := binary.LittleEndian.Uint64(data[8*c:])
		if c > 0 && v <= math.Float64bits(dict[c-1]) {
			r.fail("dictionary not strictly ascending at entry %d", c)
			return nil
		}
		dict[c] = math.Float64frombits(v)
	}
	codes := data[8*d:]
	k := 0
	for pi := present.NextSet(0); pi >= 0; pi = present.NextSet(pi + 1) {
		c := 0
		switch width {
		case 1:
			c = int(codes[k])
		case 2:
			c = int(binary.LittleEndian.Uint16(codes[2*k:]))
		}
		if c >= len(dict) {
			r.fail("code %d outside a %d-value dictionary", c, len(dict))
			return nil
		}
		vals[pi] = dict[c]
		k++
	}
	return vals
}

// records reads a count and that many records.
func (r *reader) records() []table.Record {
	recs := make([]table.Record, r.count("records", 2))
	for i := range recs {
		recs[i].ID = r.string()
		recs[i].Values = make([]string, r.count("values", 1))
		for j := range recs[i].Values {
			recs[i].Values[j] = r.string()
		}
	}
	return recs
}

// indices reads a count and that many ascending record indices.
func (r *reader) indices() []int32 {
	out := make([]int32, r.count("tombstones", 1))
	next := uint64(0)
	for i := range out {
		gap := r.uvarint()
		if gap > math.MaxInt32 || next+gap > math.MaxInt32 {
			r.fail("tombstone index out of range")
			return nil
		}
		out[i] = int32(next + gap)
		next += gap + 1
	}
	return out
}
