package wal

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"rulematch/internal/block"
	"rulematch/internal/core"
	"rulematch/internal/faultio"
	"rulematch/internal/incremental"
	"rulematch/internal/rule"
	"rulematch/internal/sim"
	"rulematch/internal/table"
)

// buildBlockedSessionT mirrors buildSessionT but drives the candidate
// set through a delta blocker, so record_append/record_delete ops can
// be journaled and replayed.
func buildBlockedSessionT(t *testing.T) (*incremental.Session, *table.Table, *table.Table) {
	t.Helper()
	a := table.MustNew("A", []string{"name", "city"})
	b := table.MustNew("B", []string{"name", "city"})
	rowsA := [][]string{
		{"matthew richardson", "seattle"}, {"john smith", "madison"},
		{"maria garcia", "chicago"}, {"wei chen", "milwaukee"},
	}
	rowsB := [][]string{
		{"matt richardson", "seattle"}, {"jon smith", "madison"},
		{"mary garcia", "chicago"}, {"alexandra cooper", "new york"},
	}
	for i, r := range rowsA {
		a.Append(fmt.Sprintf("a%d", i), r...)
	}
	for i, r := range rowsB {
		b.Append(fmt.Sprintf("b%d", i), r...)
	}
	blk := block.AttrEquivalence{Attr: "city"}
	pairs, err := blk.Pairs(a, b)
	if err != nil {
		t.Fatal(err)
	}
	f, err := rule.ParseFunction(`
rule r1: jaro_winkler(name, name) >= 0.9 and exact_match(city, city) >= 1
rule r2: trigram(name, name) >= 0.75
`)
	if err != nil {
		t.Fatal(err)
	}
	c, err := core.Compile(f, sim.Standard(), a, b)
	if err != nil {
		t.Fatal(err)
	}
	s := incremental.NewSession(c, pairs)
	s.Blocker = blk
	if err := s.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	return s, a, b
}

// recOpsScript interleaves a rule edit with record appends and deletes.
func recOpsScript() []Record {
	return []Record{
		{Op: "set_threshold", Rule: 1, Pred: 0, Threshold: 0.7},
		{Op: "record_append",
			RecsA: []table.Record{{ID: "a4", Values: []string{"alex cooper", "new york"}}},
			RecsB: []table.Record{
				{ID: "b4", Values: []string{"wei chen", "milwaukee"}},
				{ID: "b5", Values: []string{"matthew richardson", "seattle"}},
			}},
		{Op: "record_delete", DelA: []string{"a1"}, DelB: []string{"b0"}},
		{Op: "record_append",
			RecsB: []table.Record{{ID: "b6", Values: []string{"john smith", "madison"}}}},
	}
}

// TestStoreRecordOpsRoundTrip journals record appends and deletes
// alongside a rule edit, then recovers and demands byte-identical
// state, grown tables, and a still-functional blocker.
func TestStoreRecordOpsRoundTrip(t *testing.T) {
	sess, a, b := buildBlockedSessionT(t)
	dir := filepath.Join(t.TempDir(), "s1")
	st, err := Create(faultio.OS, dir, SyncPolicy{Mode: SyncAlways}, sess, a, b, 0)
	if err != nil {
		t.Fatal(err)
	}
	script := recOpsScript()
	for _, rec := range script {
		if err := Apply(sess, rec); err != nil {
			t.Fatalf("apply %+v: %v", rec, err)
		}
		if err := st.RecordEdit(sess, rec); err != nil {
			t.Fatalf("record %+v: %v", rec, err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, rec, err := Open(faultio.OS, dir, SyncPolicy{Mode: SyncAlways}, sim.Standard())
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if rec.Torn {
		t.Fatal("clean journal reported torn")
	}
	if rec.Replayed != len(script) {
		t.Fatalf("replayed %d records, want %d", rec.Replayed, len(script))
	}
	// The recovered tables carry the appends and tombstones: the CSVs on
	// disk only hold the base records.
	if rec.A.Len() != 5 || rec.B.Len() != 7 {
		t.Fatalf("recovered table lengths %d/%d, want 5/7", rec.A.Len(), rec.B.Len())
	}
	if rec.A.NumDeleted() != 1 || rec.B.NumDeleted() != 1 {
		t.Fatalf("recovered tombstones %d/%d, want 1/1", rec.A.NumDeleted(), rec.B.NumDeleted())
	}
	if !bytes.Equal(saveBytes(t, rec.Session), saveBytes(t, sess)) {
		t.Fatal("recovered session state is not byte-identical to the live one")
	}
	if err := rec.Session.VerifyDeep(); err != nil {
		t.Fatal(err)
	}
	// The blocker came back through the snapshot spec, so the recovered
	// session keeps accepting appends — journaled under the next seq.
	more := Record{Op: "record_append",
		RecsB: []table.Record{{ID: "b7", Values: []string{"maria garcia", "chicago"}}}}
	if err := Apply(rec.Session, more); err != nil {
		t.Fatalf("append after recovery: %v", err)
	}
	if err := st2.RecordEdit(rec.Session, more); err != nil {
		t.Fatal(err)
	}
	if st2.Seq() != uint64(len(script))+1 {
		t.Fatalf("seq after resumed append %d, want %d", st2.Seq(), len(script)+1)
	}
}

// TestStoreTornRecordAppendRecoversPreAppend kills the journal mid
// record_append frame: recovery must land exactly on the pre-append
// state, and the re-issued append must reconverge with the live run.
func TestStoreTornRecordAppendRecoversPreAppend(t *testing.T) {
	sess, a, b := buildBlockedSessionT(t)
	dir := filepath.Join(t.TempDir(), "s1")
	st, err := Create(faultio.OS, dir, SyncPolicy{Mode: SyncAlways}, sess, a, b, 0)
	if err != nil {
		t.Fatal(err)
	}
	edit := Record{Op: "set_threshold", Rule: 1, Pred: 0, Threshold: 0.7}
	if err := Apply(sess, edit); err != nil {
		t.Fatal(err)
	}
	if err := st.RecordEdit(sess, edit); err != nil {
		t.Fatal(err)
	}
	preBytes := saveBytes(t, sess)
	preMatches := sess.MatchCount()

	appendRec := recOpsScript()[1]
	if err := Apply(sess, appendRec); err != nil {
		t.Fatal(err)
	}
	if err := st.RecordEdit(sess, appendRec); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the tail: cut into the record_append frame's payload.
	jpath := filepath.Join(dir, JournalFile)
	data, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(jpath, data[:len(data)-9], 0o644); err != nil {
		t.Fatal(err)
	}

	st2, rec, err := Open(faultio.OS, dir, SyncPolicy{Mode: SyncAlways}, sim.Standard())
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if !rec.Torn {
		t.Fatal("torn record_append not reported")
	}
	if rec.Replayed != 1 {
		t.Fatalf("replayed %d records, want 1 (the edit)", rec.Replayed)
	}
	if rec.A.Len() != 4 || rec.B.Len() != 4 {
		t.Fatalf("tables grew from the torn append: %d/%d", rec.A.Len(), rec.B.Len())
	}
	if got := rec.Session.MatchCount(); got != preMatches {
		t.Fatalf("recovered matches %d, want pre-append %d", got, preMatches)
	}
	if !bytes.Equal(saveBytes(t, rec.Session), preBytes) {
		t.Fatal("recovery after torn append is not byte-identical to the pre-append state")
	}
	// Re-issue the lost append: the store journals it at seq 2 and the
	// state reconverges with the live session that never crashed.
	if err := Apply(rec.Session, appendRec); err != nil {
		t.Fatal(err)
	}
	if err := st2.RecordEdit(rec.Session, appendRec); err != nil {
		t.Fatal(err)
	}
	if st2.Seq() != 2 {
		t.Fatalf("seq after re-append %d, want 2", st2.Seq())
	}
	if !bytes.Equal(saveBytes(t, rec.Session), saveBytes(t, sess)) {
		t.Fatal("re-issued append diverged from the uncrashed run")
	}
}

// TestStoreCompactionAfterRecordOps forces a compaction after every
// record op and checks recovery comes entirely from the snapshot —
// including the appended records, tombstones and blocker spec.
func TestStoreCompactionAfterRecordOps(t *testing.T) {
	sess, a, b := buildBlockedSessionT(t)
	dir := filepath.Join(t.TempDir(), "s1")
	st, err := Create(faultio.OS, dir, SyncPolicy{Mode: SyncAlways}, sess, a, b, 0)
	if err != nil {
		t.Fatal(err)
	}
	st.CompactAt = 1 // compact after every edit
	script := recOpsScript()
	for _, rec := range script {
		if err := Apply(sess, rec); err != nil {
			t.Fatal(err)
		}
		if err := st.RecordEdit(sess, rec); err != nil {
			t.Fatal(err)
		}
	}
	if got := st.JournalSize(); got != int64(len(Magic)) {
		t.Fatalf("journal size after compaction %d, want %d", got, len(Magic))
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
		t.Fatalf("compacted store replayed %d records", rec.Replayed)
	}
	if st2.Seq() != uint64(len(script)) {
		t.Fatalf("recovered seq %d, want %d", st2.Seq(), len(script))
	}
	if rec.A.Len() != 5 || rec.B.Len() != 7 {
		t.Fatalf("snapshot-only recovery lost appended records: %d/%d", rec.A.Len(), rec.B.Len())
	}
	if !bytes.Equal(saveBytes(t, rec.Session), saveBytes(t, sess)) {
		t.Fatal("recovered-from-compacted state differs")
	}
	if err := rec.Session.VerifyDeep(); err != nil {
		t.Fatal(err)
	}
}
