package wal

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"rulematch/internal/faultio"
	"rulematch/internal/incremental"
	"rulematch/internal/persist"
	"rulematch/internal/sim"
)

// saveBytes serializes a session's full state (bitmaps, memo, stats)
// for byte-identity comparisons.
func saveBytes(t *testing.T, s *incremental.Session) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := persist.Save(&buf, s); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestStoreCreateRecoverRoundTrip(t *testing.T) {
	sess, a, b := buildSessionT(t)
	dir := filepath.Join(t.TempDir(), "s1")
	st, err := Create(faultio.OS, dir, SyncPolicy{Mode: SyncAlways}, sess, a, b, 0)
	if err != nil {
		t.Fatal(err)
	}
	script := editScript()
	for _, rec := range script {
		if err := Apply(sess, rec); err != nil {
			t.Fatalf("apply %+v: %v", rec, err)
		}
		if err := st.RecordEdit(sess, rec); err != nil {
			t.Fatalf("record %+v: %v", rec, err)
		}
	}
	if st.Seq() != uint64(len(script)) {
		t.Fatalf("seq %d, want %d", st.Seq(), len(script))
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, rec, err := Open(faultio.OS, dir, SyncPolicy{Mode: SyncAlways}, sim.Standard())
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if st2.Seq() != uint64(len(script)) {
		t.Fatalf("recovered seq %d, want %d", st2.Seq(), len(script))
	}
	if rec.Replayed != len(script) {
		t.Fatalf("replayed %d records, want %d", rec.Replayed, len(script))
	}
	if rec.Torn {
		t.Fatal("clean journal reported torn")
	}
	if !bytes.Equal(saveBytes(t, rec.Session), saveBytes(t, sess)) {
		t.Fatal("recovered session state is not byte-identical to the live one")
	}
	if err := rec.Session.VerifyDeep(); err != nil {
		t.Fatal(err)
	}
	// The recovered store keeps journaling where the old one stopped.
	next := Record{Op: "set_threshold", Rule: 0, Pred: 0, Threshold: 0.95}
	if err := Apply(rec.Session, next); err != nil {
		t.Fatal(err)
	}
	if err := st2.RecordEdit(rec.Session, next); err != nil {
		t.Fatal(err)
	}
	if st2.Seq() != uint64(len(script))+1 {
		t.Fatalf("seq after resume %d", st2.Seq())
	}
}

func TestStoreCompactionFoldsJournal(t *testing.T) {
	sess, a, b := buildSessionT(t)
	dir := filepath.Join(t.TempDir(), "s1")
	st, err := Create(faultio.OS, dir, SyncPolicy{Mode: SyncAlways}, sess, a, b, 0)
	if err != nil {
		t.Fatal(err)
	}
	st.CompactAt = 1 // compact after every edit
	script := editScript()
	for _, rec := range script {
		if err := Apply(sess, rec); err != nil {
			t.Fatal(err)
		}
		if err := st.RecordEdit(sess, rec); err != nil {
			t.Fatal(err)
		}
	}
	// Journal rotated away: only the header remains.
	if got := st.JournalSize(); got != int64(len(Magic)) {
		t.Fatalf("journal size after compaction %d, want %d", got, len(Magic))
	}
	// The snapshot carries the covered sequence.
	_, info, err := persist.LoadFileInfo(filepath.Join(dir, SnapshotFile), sim.Standard(), a, b)
	if err != nil {
		t.Fatal(err)
	}
	if info.Seq != uint64(len(script)) {
		t.Fatalf("snapshot seq %d, want %d", info.Seq, len(script))
	}
	st.Close()

	st2, rec, err := Open(faultio.OS, dir, SyncPolicy{Mode: SyncAlways}, sim.Standard())
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if rec.Replayed != 0 {
		t.Fatalf("compacted store replayed %d records", rec.Replayed)
	}
	if st2.Seq() != uint64(len(script)) {
		t.Fatalf("recovered seq %d", st2.Seq())
	}
	if !bytes.Equal(saveBytes(t, rec.Session), saveBytes(t, sess)) {
		t.Fatal("recovered-from-compacted state differs")
	}
}

func TestStoreDestroy(t *testing.T) {
	sess, a, b := buildSessionT(t)
	dir := filepath.Join(t.TempDir(), "s1")
	st, err := Create(faultio.OS, dir, SyncPolicy{Mode: SyncNever}, sess, a, b, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Destroy(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Fatalf("session directory survived Destroy: %v", err)
	}
}

func TestStoreCreateRefusesExistingSnapshot(t *testing.T) {
	sess, a, b := buildSessionT(t)
	dir := filepath.Join(t.TempDir(), "s1")
	st, err := Create(faultio.OS, dir, SyncPolicy{Mode: SyncNever}, sess, a, b, 0)
	if err != nil {
		t.Fatal(err)
	}
	st.Close()
	if _, err := Create(faultio.OS, dir, SyncPolicy{Mode: SyncNever}, sess, a, b, 0); err == nil {
		t.Fatal("Create over an existing session directory accepted")
	}
}
