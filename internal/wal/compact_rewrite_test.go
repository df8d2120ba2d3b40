package wal

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rulematch/internal/faultio"
	"rulematch/internal/persist"
	"rulematch/internal/sim"
)

// csvLines counts data lines (header excluded) in a table CSV.
func csvLines(t *testing.T, path string) int {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return len(strings.Split(strings.TrimSpace(string(raw)), "\n")) - 1
}

// CompactRewrite is the evict-time compaction: tombstoned records
// vanish from the CSVs, the snapshot becomes self-contained, the
// journal rotates, and reopening the store reproduces the compacted
// session byte for byte.
func TestCompactRewriteDropsTombstonesOnDisk(t *testing.T) {
	sess, a, b := buildSessionT(t)
	dir := filepath.Join(t.TempDir(), "s1")
	st, err := Create(faultio.OS, dir, SyncPolicy{Mode: SyncAlways}, sess, a, b, 0)
	if err != nil {
		t.Fatal(err)
	}
	script := []Record{
		{Op: "set_threshold", Rule: 1, Pred: 0, Threshold: 0.6},
		{Op: "record_delete", DelA: []string{"a1"}, DelB: []string{"b3"}},
	}
	for _, rec := range script {
		if err := Apply(sess, rec); err != nil {
			t.Fatal(err)
		}
		if err := st.RecordEdit(sess, rec); err != nil {
			t.Fatal(err)
		}
	}
	if csvLines(t, filepath.Join(dir, TableAFile)) != 4 {
		t.Fatal("test setup: expected the original 4 records on disk")
	}

	cs, err := persist.Compact(sess, sim.Standard())
	if err != nil {
		t.Fatal(err)
	}
	if err := st.CompactRewrite(cs, cs.M.C.A, cs.M.C.B); err != nil {
		t.Fatal(err)
	}
	// Journal rotated away: only the header remains.
	if got := st.JournalSize(); got != int64(len(Magic)) {
		t.Errorf("journal size after rewrite %d, want %d", got, len(Magic))
	}
	// The CSVs shrank to the live records.
	if got := csvLines(t, filepath.Join(dir, TableAFile)); got != 3 {
		t.Errorf("tableA.csv has %d records after rewrite, want 3", got)
	}
	if got := csvLines(t, filepath.Join(dir, TableBFile)); got != 3 {
		t.Errorf("tableB.csv has %d records after rewrite, want 3", got)
	}
	// The snapshot carries the covered sequence and is self-contained.
	_, info, err := persist.LoadFileInfo(filepath.Join(dir, SnapshotFile), sim.Standard(), cs.M.C.A, cs.M.C.B)
	if err != nil {
		t.Fatal(err)
	}
	if info.Seq != uint64(len(script)) {
		t.Errorf("snapshot seq %d, want %d", info.Seq, len(script))
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, rec, err := Open(faultio.OS, dir, SyncPolicy{Mode: SyncAlways}, sim.Standard())
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if rec.Replayed != 0 {
		t.Errorf("rewritten store replayed %d journal records, want 0", rec.Replayed)
	}
	if err := rec.Session.VerifyDeep(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(saveBytes(t, rec.Session), saveBytes(t, cs)) {
		t.Error("reopened session is not byte-identical to the compacted one")
	}
	if rec.Session.M.C.A.NumDeleted()+rec.Session.M.C.B.NumDeleted() != 0 {
		t.Error("reopened session still sees tombstones")
	}
	// The reopened store keeps journaling where the rewrite left off.
	next := Record{Op: "set_threshold", Rule: 0, Pred: 0, Threshold: 0.95}
	if err := Apply(rec.Session, next); err != nil {
		t.Fatal(err)
	}
	if err := st2.RecordEdit(rec.Session, next); err != nil {
		t.Fatal(err)
	}
	if st2.Seq() != uint64(len(script))+1 {
		t.Errorf("seq after resume %d, want %d", st2.Seq(), len(script)+1)
	}
}
