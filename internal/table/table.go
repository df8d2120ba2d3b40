// Package table provides the record/table substrate for entity matching:
// typed tables of string-attribute records, candidate pairs, and CSV I/O.
//
// A matching task (paper Section 3) takes two tables A and B and a set of
// candidate pairs (record index pairs) produced by a blocking step.
package table

import (
	"fmt"
)

// Record is a single row. Values is parallel to the owning table's Attrs.
type Record struct {
	ID     string
	Values []string
}

// Table is a named collection of records sharing a schema.
//
// Records are append-only: a record's index is its permanent identity
// (candidate pairs reference records by index), so DeleteRecord
// tombstones the slot rather than compacting the slice. Deleted
// records keep their ID reserved — re-appending the same ID is an
// error — which keeps the id→index map a bijection for the table's
// whole history.
//
// A tombstone keeps its values until ReleaseTombstones drops them: the
// owner calls it once nothing reads the tombstoned records' values any
// more (no candidate pair references them), and from then on they read
// "" for every attribute. Their IDs and indices stay.
type Table struct {
	Name    string
	Attrs   []string
	Records []Record

	attrIdx map[string]int
	idIdx   map[string]int
	deleted []bool // parallel to Records when non-nil; lazily allocated
	numDel  int
	pending []int32 // tombstones not yet released, in deletion order
}

// New creates an empty table with the given name and attribute names.
// Attribute names must be unique.
func New(name string, attrs []string) (*Table, error) {
	t := &Table{Name: name, Attrs: append([]string(nil), attrs...), attrIdx: make(map[string]int, len(attrs))}
	for i, a := range attrs {
		if _, dup := t.attrIdx[a]; dup {
			return nil, fmt.Errorf("table %q: duplicate attribute %q", name, a)
		}
		t.attrIdx[a] = i
	}
	return t, nil
}

// MustNew is New but panics on error; intended for tests and generators
// with known-good schemas.
func MustNew(name string, attrs []string) *Table {
	t, err := New(name, attrs)
	if err != nil {
		panic(err)
	}
	return t
}

// Append adds a record. The number of values must equal the number of
// attributes, and the ID must not already be present (deleted records
// keep their IDs reserved).
func (t *Table) Append(id string, values ...string) error {
	_, err := t.AppendRecord(Record{ID: id, Values: append([]string(nil), values...)})
	return err
}

// AppendRecord adds a record and returns its index. The id→index map
// is maintained incrementally, so the cost is O(1) amortized.
func (t *Table) AppendRecord(r Record) (int, error) {
	if len(r.Values) != len(t.Attrs) {
		return -1, fmt.Errorf("table %q: record %q has %d values, schema has %d attributes",
			t.Name, r.ID, len(r.Values), len(t.Attrs))
	}
	t.ensureIDIdx()
	if prev, dup := t.idIdx[r.ID]; dup {
		return -1, fmt.Errorf("table %q: duplicate record ID %q (already at index %d)", t.Name, r.ID, prev)
	}
	i := len(t.Records)
	t.Records = append(t.Records, r)
	t.idIdx[r.ID] = i
	if t.deleted != nil {
		t.deleted = append(t.deleted, false)
	}
	return i, nil
}

// DeleteRecord tombstones the record with the given ID and returns its
// index. The slot and the ID stay in place — candidate pairs reference
// records by index, so indices must remain stable — but Deleted
// reports true and blockers skip the record. Its values stay readable
// until the next ReleaseTombstones. Deleting an already-deleted record
// is an error.
func (t *Table) DeleteRecord(id string) (int, error) {
	i, ok := t.RecordByID(id)
	if !ok {
		return -1, fmt.Errorf("table %q: no record with ID %q", t.Name, id)
	}
	if t.deleted == nil {
		t.deleted = make([]bool, len(t.Records))
	}
	if t.deleted[i] {
		return -1, fmt.Errorf("table %q: record %q already deleted", t.Name, id)
	}
	t.deleted[i] = true
	t.numDel++
	t.pending = append(t.pending, int32(i))
	return i, nil
}

// Deleted reports whether record i is tombstoned.
func (t *Table) Deleted(i int) bool { return t.deleted != nil && t.deleted[i] }

// NumDeleted returns the number of tombstoned records.
func (t *Table) NumDeleted() int { return t.numDel }

// DeletedIndices returns the indices of all tombstoned records in
// ascending order (nil when there are none).
func (t *Table) DeletedIndices() []int32 {
	if t.numDel == 0 {
		return nil
	}
	out := make([]int32, 0, t.numDel)
	for i, d := range t.deleted {
		if d {
			out = append(out, int32(i))
		}
	}
	return out
}

// MarkDeleted tombstones record i without an ID lookup; used when
// restoring a table's deletion state from a snapshot. Like
// DeleteRecord, it leaves the tombstone's values in place until the
// next ReleaseTombstones. Marking an already-deleted record is a no-op.
func (t *Table) MarkDeleted(i int) {
	if t.deleted == nil {
		t.deleted = make([]bool, len(t.Records))
	}
	if !t.deleted[i] {
		t.deleted[i] = true
		t.numDel++
		t.pending = append(t.pending, int32(i))
	}
}

// ReleaseTombstones drops the values of every record tombstoned since
// the last release and returns their indices, in deletion order (nil
// when there are none). The released records' Values become one shared
// all-empty row of the table's arity, so every full-column scan reads
// "" for them; their IDs stay reserved and their indices stable. The
// cost is proportional to the records released, not to every
// tombstone.
//
// Values are replaced, never written through: a Clone taken earlier,
// or a caller still holding the old slice, keeps the original strings.
func (t *Table) ReleaseTombstones() []int32 {
	if len(t.pending) == 0 {
		return nil
	}
	blank := make([]string, len(t.Attrs))
	for _, i := range t.pending {
		t.Records[i].Values = blank
	}
	out := t.pending
	t.pending = nil
	return out
}

// Clone returns a deep-enough copy sharing record values (values are
// never written through; a release replaces them) but with independent
// bookkeeping, so appends, deletes and releases on the clone do not
// affect the original.
func (t *Table) Clone() *Table {
	c := &Table{
		Name:    t.Name,
		Attrs:   t.Attrs,
		Records: append([]Record(nil), t.Records...),
		attrIdx: t.attrIdx,
		numDel:  t.numDel,
		pending: append([]int32(nil), t.pending...),
	}
	if t.deleted != nil {
		c.deleted = append([]bool(nil), t.deleted...)
	}
	return c
}

func (t *Table) ensureIDIdx() {
	if t.idIdx == nil {
		t.idIdx = make(map[string]int, len(t.Records))
		for i, r := range t.Records {
			t.idIdx[r.ID] = i
		}
	}
}

// Len returns the number of records.
func (t *Table) Len() int { return len(t.Records) }

// AttrIndex returns the column index of the named attribute.
func (t *Table) AttrIndex(name string) (int, bool) {
	i, ok := t.attrIdx[name]
	return i, ok
}

// Value returns the value of attribute column col for record rec.
func (t *Table) Value(rec, col int) string { return t.Records[rec].Values[col] }

// RecordByID returns the index of the record with the given ID. The
// lookup is O(1): the id→index map is built once and maintained by
// AppendRecord. Tombstoned records still resolve (their pairs remain
// addressable); check Deleted for liveness.
func (t *Table) RecordByID(id string) (int, bool) {
	t.ensureIDIdx()
	i, ok := t.idIdx[id]
	return i, ok
}

// Column returns all values of the named attribute in record order.
func (t *Table) Column(name string) ([]string, error) {
	col, ok := t.attrIdx[name]
	if !ok {
		return nil, fmt.Errorf("table %q: no attribute %q", t.Name, name)
	}
	out := make([]string, len(t.Records))
	for i, r := range t.Records {
		out[i] = r.Values[col]
	}
	return out, nil
}

// Pair identifies one candidate record pair by record indices into
// tables A and B.
type Pair struct {
	A, B int32
}

// PairKey is a compact unique key for a pair, usable as a map key.
func (p Pair) PairKey() uint64 { return uint64(uint32(p.A))<<32 | uint64(uint32(p.B)) }

func (p Pair) String() string { return fmt.Sprintf("(%d,%d)", p.A, p.B) }
