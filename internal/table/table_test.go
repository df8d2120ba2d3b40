package table

import (
	"bytes"
	"slices"
	"strings"
	"testing"
)

func TestNewRejectsDuplicateAttrs(t *testing.T) {
	if _, err := New("t", []string{"a", "b", "a"}); err == nil {
		t.Fatal("duplicate attribute accepted")
	}
}

func TestAppendAndAccess(t *testing.T) {
	tb := MustNew("people", []string{"name", "phone"})
	if err := tb.Append("p1", "alice", "555-0100"); err != nil {
		t.Fatal(err)
	}
	if err := tb.Append("p2", "bob", "555-0199"); err != nil {
		t.Fatal(err)
	}
	if tb.Len() != 2 {
		t.Fatalf("len = %d", tb.Len())
	}
	col, ok := tb.AttrIndex("phone")
	if !ok || col != 1 {
		t.Fatalf("AttrIndex(phone) = %d, %v", col, ok)
	}
	if got := tb.Value(1, col); got != "555-0199" {
		t.Errorf("Value = %q", got)
	}
	if _, ok := tb.AttrIndex("zip"); ok {
		t.Error("unknown attribute found")
	}
}

func TestAppendArityMismatch(t *testing.T) {
	tb := MustNew("t", []string{"a", "b"})
	if err := tb.Append("x", "only-one"); err == nil {
		t.Fatal("arity mismatch accepted")
	}
}

func TestRecordByID(t *testing.T) {
	tb := MustNew("t", []string{"a"})
	for _, id := range []string{"x", "y", "z"} {
		if err := tb.Append(id, id+"-val"); err != nil {
			t.Fatal(err)
		}
	}
	i, ok := tb.RecordByID("y")
	if !ok || i != 1 {
		t.Fatalf("RecordByID(y) = %d, %v", i, ok)
	}
	if _, ok := tb.RecordByID("missing"); ok {
		t.Error("missing id found")
	}
	// Index invalidated by Append.
	if err := tb.Append("w", "w-val"); err != nil {
		t.Fatal(err)
	}
	if i, ok := tb.RecordByID("w"); !ok || i != 3 {
		t.Fatalf("RecordByID(w) after append = %d, %v", i, ok)
	}
}

func TestColumn(t *testing.T) {
	tb := MustNew("t", []string{"a", "b"})
	tb.Append("1", "x", "p")
	tb.Append("2", "y", "q")
	col, err := tb.Column("b")
	if err != nil {
		t.Fatal(err)
	}
	if len(col) != 2 || col[0] != "p" || col[1] != "q" {
		t.Errorf("Column(b) = %v", col)
	}
	if _, err := tb.Column("nope"); err == nil {
		t.Error("unknown column accepted")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	tb := MustNew("t", []string{"name", "notes"})
	tb.Append("r1", "alice", `has "quotes", and commas`)
	tb.Append("r2", "bob", "line\nbreak")
	var buf bytes.Buffer
	if err := tb.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf, "t2")
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 2 {
		t.Fatalf("round trip len = %d", got.Len())
	}
	for i := range tb.Records {
		if got.Records[i].ID != tb.Records[i].ID {
			t.Errorf("row %d id %q != %q", i, got.Records[i].ID, tb.Records[i].ID)
		}
		for j := range tb.Attrs {
			if got.Records[i].Values[j] != tb.Records[i].Values[j] {
				t.Errorf("row %d col %d: %q != %q", i, j, got.Records[i].Values[j], tb.Records[i].Values[j])
			}
		}
	}
}

func TestReadCSVErrors(t *testing.T) {
	if _, err := ReadCSV(strings.NewReader("id\n"), "t"); err == nil {
		t.Error("header with no attributes accepted")
	}
	if _, err := ReadCSV(strings.NewReader("id,a\nx,1,2\n"), "t"); err == nil {
		t.Error("ragged row accepted")
	}
}

func TestPairKey(t *testing.T) {
	a := Pair{A: 1, B: 2}
	b := Pair{A: 2, B: 1}
	if a.PairKey() == b.PairKey() {
		t.Error("asymmetric pairs collide")
	}
	if a.PairKey() != (Pair{A: 1, B: 2}).PairKey() {
		t.Error("equal pairs differ")
	}
	if a.String() != "(1,2)" {
		t.Errorf("String = %q", a.String())
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustNew with duplicate attrs did not panic")
		}
	}()
	MustNew("t", []string{"a", "a"})
}

func TestCSVFileErrors(t *testing.T) {
	tb := MustNew("t", []string{"a"})
	tb.Append("1", "x")
	if err := tb.WriteCSVFile("/nonexistent-dir/x.csv"); err == nil {
		t.Error("write to bad path accepted")
	}
	if _, err := ReadCSVFile("/nonexistent-dir/x.csv", "t"); err == nil {
		t.Error("read from bad path accepted")
	}
	// Round trip through a real file.
	path := t.TempDir() + "/t.csv"
	if err := tb.WriteCSVFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSVFile(path, "t2")
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 1 || got.Records[0].ID != "1" {
		t.Errorf("file round trip = %+v", got.Records)
	}
}

func TestAppendRejectsDuplicateID(t *testing.T) {
	tb := MustNew("t", []string{"a"})
	if err := tb.Append("x", "1"); err != nil {
		t.Fatal(err)
	}
	err := tb.Append("x", "2")
	if err == nil {
		t.Fatal("duplicate ID accepted")
	}
	if !strings.Contains(err.Error(), "duplicate record ID") {
		t.Fatalf("error = %v", err)
	}
	if tb.Len() != 1 {
		t.Fatalf("failed append mutated the table: len = %d", tb.Len())
	}
}

func TestDeleteRecord(t *testing.T) {
	tb := MustNew("t", []string{"a"})
	for _, id := range []string{"x", "y", "z"} {
		if err := tb.Append(id, id+"-val"); err != nil {
			t.Fatal(err)
		}
	}
	i, err := tb.DeleteRecord("y")
	if err != nil || i != 1 {
		t.Fatalf("DeleteRecord(y) = %d, %v", i, err)
	}
	if !tb.Deleted(1) || tb.Deleted(0) || tb.Deleted(2) {
		t.Fatal("wrong tombstones")
	}
	if tb.Len() != 3 {
		t.Fatalf("delete changed Len: %d", tb.Len())
	}
	if tb.NumDeleted() != 1 {
		t.Fatalf("NumDeleted = %d", tb.NumDeleted())
	}
	// Values stay readable (pair indices reference them).
	if got := tb.Value(1, 0); got != "y-val" {
		t.Fatalf("deleted record value = %q", got)
	}
	// Double delete and unknown ID fail.
	if _, err := tb.DeleteRecord("y"); err == nil {
		t.Fatal("double delete accepted")
	}
	if _, err := tb.DeleteRecord("nope"); err == nil {
		t.Fatal("unknown ID accepted")
	}
	// The ID stays reserved: re-append is a duplicate.
	if err := tb.Append("y", "again"); err == nil {
		t.Fatal("re-append of deleted ID accepted")
	}
	if got := tb.DeletedIndices(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("DeletedIndices = %v", got)
	}
}

func TestMarkDeletedIdempotent(t *testing.T) {
	tb := MustNew("t", []string{"a"})
	tb.Append("x", "1")
	tb.Append("y", "2")
	tb.MarkDeleted(0)
	tb.MarkDeleted(0)
	if !tb.Deleted(0) || tb.NumDeleted() != 1 {
		t.Fatalf("MarkDeleted not idempotent: NumDeleted = %d", tb.NumDeleted())
	}
}

func TestClone(t *testing.T) {
	tb := MustNew("t", []string{"a"})
	tb.Append("x", "1")
	tb.Append("y", "2")
	tb.DeleteRecord("x")
	cl := tb.Clone()
	// Growing and deleting on the clone leaves the original alone.
	if err := cl.Append("z", "3"); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.DeleteRecord("y"); err != nil {
		t.Fatal(err)
	}
	if tb.Len() != 2 || cl.Len() != 3 {
		t.Fatalf("lens: orig %d clone %d", tb.Len(), cl.Len())
	}
	if tb.Deleted(1) {
		t.Fatal("clone delete leaked into the original")
	}
	if !cl.Deleted(0) || !cl.Deleted(1) {
		t.Fatal("clone lost tombstones")
	}
	if _, ok := tb.RecordByID("z"); ok {
		t.Fatal("clone append leaked into the original index")
	}
}

// TestReleaseTombstones: a release empties the values of exactly the
// records tombstoned since the last one, through DeleteRecord and
// MarkDeleted alike, keeps their IDs resolvable and reserved, and
// never writes through a values slice a clone or caller still holds.
func TestReleaseTombstones(t *testing.T) {
	tb := MustNew("t", []string{"a", "b"})
	for _, id := range []string{"w", "x", "y", "z"} {
		if err := tb.Append(id, id+"1", id+"2"); err != nil {
			t.Fatal(err)
		}
	}
	if got := tb.ReleaseTombstones(); got != nil {
		t.Fatalf("release with no tombstones returned %v", got)
	}
	held := tb.Records[1].Values
	if _, err := tb.DeleteRecord("x"); err != nil {
		t.Fatal(err)
	}
	tb.MarkDeleted(3)
	tb.MarkDeleted(3) // no-op: not pending twice
	cl := tb.Clone()
	if got := tb.ReleaseTombstones(); !slices.Equal(got, []int32{1, 3}) {
		t.Fatalf("released %v, want [1 3]", got)
	}
	for _, i := range []int{1, 3} {
		if tb.Value(i, 0) != "" || tb.Value(i, 1) != "" {
			t.Fatalf("released record %d reads %v", i, tb.Records[i].Values)
		}
		if j, ok := tb.RecordByID(tb.Records[i].ID); !ok || j != i {
			t.Fatalf("released record %d resolves to (%d, %v)", i, j, ok)
		}
	}
	if err := tb.Append("x", "again", "again"); err == nil {
		t.Fatal("a released ID was appendable")
	}
	if tb.Value(0, 0) != "w1" || tb.Value(2, 1) != "y2" {
		t.Fatal("release touched a live record")
	}
	if held[0] != "x1" || cl.Value(1, 0) != "x1" || cl.Value(3, 1) != "z2" {
		t.Fatal("release wrote through a values slice held elsewhere")
	}
	if got := tb.ReleaseTombstones(); got != nil {
		t.Fatalf("second release returned %v, want nothing pending", got)
	}
	if got := cl.ReleaseTombstones(); !slices.Equal(got, []int32{1, 3}) {
		t.Fatalf("clone released %v, want its own pending [1 3]", got)
	}
	if _, err := tb.DeleteRecord("w"); err != nil {
		t.Fatal(err)
	}
	if got := tb.ReleaseTombstones(); !slices.Equal(got, []int32{0}) {
		t.Fatalf("released %v after one more delete, want [0]", got)
	}
}
