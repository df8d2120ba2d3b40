package wal

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"rulematch/internal/faultio"
	"rulematch/internal/incremental"
	"rulematch/internal/sim"
	"rulematch/internal/table"
)

// shipStore creates a durable store over the small test session, with
// an empty journal.
func shipStore(t *testing.T) (*Store, *incremental.Session) {
	t.Helper()
	sess, a, b := buildSessionT(t)
	st, err := Create(faultio.OS, filepath.Join(t.TempDir(), "s"), SyncPolicy{Mode: SyncNever}, sess, a, b, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st, sess
}

// shipRecord is what journalN journals; FramesAfter reads only the
// journal, so it need not be applied to the session.
var shipRecord = Record{Op: "set_threshold", Rule: 1, Threshold: 0.5}

// journalN journals n copies of shipRecord.
func journalN(t *testing.T, st *Store, sess *incremental.Session, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := st.RecordEdit(sess, shipRecord); err != nil {
			t.Fatal(err)
		}
	}
}

// shipped calls FramesAfter(from) and decodes what it returns into the
// shipped sequence numbers.
func shipped(t *testing.T, st *Store, from uint64) (string, uint64) {
	t.Helper()
	frames, last, err := st.FramesAfter(from)
	if err != nil {
		t.Fatalf("FramesAfter(%d): %v", from, err)
	}
	recs, err := DecodeFrames(frames)
	if err != nil {
		t.Fatalf("FramesAfter(%d) shipped undecodable bytes: %v", from, err)
	}
	seqs := make([]uint64, len(recs))
	for i, rec := range recs {
		seqs[i] = rec.Seq
	}
	return fmt.Sprint(seqs), last
}

// expectRotated asserts FramesAfter(from) answers ErrRotated.
func expectRotated(t *testing.T, st *Store, from uint64, label string) {
	t.Helper()
	frames, last, err := st.FramesAfter(from)
	if !errors.Is(err, ErrRotated) {
		t.Fatalf("%s: FramesAfter(%d) = %d bytes, last=%d, err=%v; want ErrRotated", label, from, len(frames), last, err)
	}
}

// TestTailFollowsAppends proves a follower tailing the journal through
// FramesAfter gets exactly the appended suffix across several
// append/ship rounds, and an idle round ships nothing.
func TestTailFollowsAppends(t *testing.T) {
	st, sess := shipStore(t)
	if got, last := shipped(t, st, 0); got != "[]" || last != 0 {
		t.Fatalf("empty journal shipped %s, last=%d", got, last)
	}
	journalN(t, st, sess, 3)
	if got, last := shipped(t, st, 0); got != "[1 2 3]" || last != 3 {
		t.Fatalf("first round shipped %s, last=%d; want [1 2 3], 3", got, last)
	}
	if got, last := shipped(t, st, 3); got != "[]" || last != 3 {
		t.Fatalf("idle round shipped %s, last=%d", got, last)
	}
	journalN(t, st, sess, 2)
	if got, last := shipped(t, st, 3); got != "[4 5]" || last != 5 {
		t.Fatalf("second round shipped %s, last=%d; want [4 5], 5", got, last)
	}
}

// TestTailSkipsCoveredRecords proves a cursor mid-history ships only
// the later records, also when the journal still holds records a newer
// snapshot covers, which a crash between snapshot publish and rotation
// leaves behind.
func TestTailSkipsCoveredRecords(t *testing.T) {
	st, sess := shipStore(t)
	journalN(t, st, sess, 5)
	if got, _ := shipped(t, st, 3); got != "[4 5]" {
		t.Fatalf("cursor 3 shipped %s, want [4 5]", got)
	}
	// The crash point: snapshot at seq 5 published, journal not rotated.
	if err := st.saveSnapshot(sess); err != nil {
		t.Fatal(err)
	}
	st.Close()
	st, _, err := Open(faultio.OS, st.Dir(), SyncPolicy{Mode: SyncNever}, sim.Standard())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	journalN(t, st, sess, 2)
	if got, last := shipped(t, st, 5); got != "[6 7]" || last != 7 {
		t.Fatalf("after recovery shipped %s, last=%d; want [6 7], 7", got, last)
	}
	expectRotated(t, st, 4, "cursor below the snapshot")
}

// TestTailTornFrame proves the shipped run ends at the store's last
// committed record: a frame half-written past it (an append cut short)
// neither ships nor hides the records before it, while a journal cut
// inside the run answers ErrRotated.
func TestTailTornFrame(t *testing.T) {
	st, sess := shipStore(t)
	journalN(t, st, sess, 2)
	path := filepath.Join(st.Dir(), JournalFile)
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	frame, err := EncodeFrame(Record{Seq: 3, Op: "relax", Rule: 0, Threshold: 0.4})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(whole, frame[:len(frame)-3]...), 0o644); err != nil {
		t.Fatal(err)
	}
	if got, last := shipped(t, st, 0); got != "[1 2]" || last != 2 {
		t.Fatalf("with a torn frame past seq 2 shipped %s, last=%d; want [1 2], 2", got, last)
	}
	// Cut the journal five bytes into record 2's frame.
	if err := os.WriteFile(path, whole[:len(whole)-len(frameOf(t, 2))+5], 0o644); err != nil {
		t.Fatal(err)
	}
	expectRotated(t, st, 0, "journal cut inside record 2")
	expectRotated(t, st, 1, "journal cut inside record 2")
	if got, last := shipped(t, st, 2); got != "[]" || last != 2 {
		t.Fatalf("caught-up cursor shipped %s, last=%d", got, last)
	}
}

// TestTailRotationDetected proves every way the journal can stop
// holding a cursor's records surfaces as ErrRotated: compaction past
// the cursor, a journal reduced to its header, one that lost its
// header, and a missing one.
func TestTailRotationDetected(t *testing.T) {
	st, sess := shipStore(t)
	journalN(t, st, sess, 4)
	if err := st.Compact(sess); err != nil {
		t.Fatal(err)
	}
	journalN(t, st, sess, 2)
	expectRotated(t, st, 2, "cursor below the snapshot")
	if got, last := shipped(t, st, 4); got != "[5 6]" || last != 6 {
		t.Fatalf("after rotation shipped %s, last=%d; want [5 6], 6", got, last)
	}
	path := filepath.Join(st.Dir(), JournalFile)
	for _, c := range []struct {
		label string
		data  []byte
	}{{"header only", []byte(Magic)}, {"no header", []byte("garbage!")}} {
		if err := os.WriteFile(path, c.data, 0o644); err != nil {
			t.Fatal(err)
		}
		expectRotated(t, st, 4, c.label)
	}
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	expectRotated(t, st, 4, "missing journal")
}

// frameOf is the frame journalN writes for sequence seq.
func frameOf(t *testing.T, seq uint64) []byte {
	t.Helper()
	rec := shipRecord
	rec.Seq = seq
	frame, err := EncodeFrame(rec)
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

// TestFramesAfterCorruptJournalIsRotated proves a corrupt journal never
// reports a follower caught up: with one payload byte of record 3 of 6
// flipped, the readable journal stops short of the store's seq, so a
// cursor that needs record 3 gets ErrRotated (and the follower
// re-bootstraps) rather than an empty, caught-up answer.
func TestFramesAfterCorruptJournalIsRotated(t *testing.T) {
	st, sess := shipStore(t)
	journalN(t, st, sess, 6)
	path := filepath.Join(st.Dir(), JournalFile)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	off := len(Magic) + len(frameOf(t, 1)) + len(frameOf(t, 2)) + 8 + 2
	data[off] ^= 0x20
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	expectRotated(t, st, 0, "record 3 corrupt")
	expectRotated(t, st, 2, "record 3 corrupt")
}

// TestFramesAfterShipsJournalBytes proves FramesAfter ships, for every
// cursor, the frames of the later records exactly as EncodeFrame
// writes them: escaping, non-ASCII text, record batches and the epoch
// stamp included.
func TestFramesAfterShipsJournalBytes(t *testing.T) {
	st, sess := shipStore(t)
	st.SetEpoch(3)
	recs := []Record{
		{Op: "set_threshold", Rule: 1, Threshold: 0.6},
		{Op: "add_rule", Src: "rule r9: jaccard(name, name) >= 0.5"},
		{Op: "record_append", RecsA: []table.Record{{ID: "a9", Values: []string{"zoë & co <ltd>", "madison"}}}},
		{Op: "record_delete", DelB: []string{"b1"}},
		{Op: "tighten", Rule: 0, Pred: 1, Threshold: 1.0 / 3},
		{Op: "remove_rule", Rule: 1},
	}
	for i := range recs {
		if err := st.RecordEdit(sess, recs[i]); err != nil {
			t.Fatal(err)
		}
		recs[i].Seq, recs[i].Epoch = uint64(i+1), 3
	}
	for from := 0; from <= len(recs); from++ {
		var want []byte
		for _, rec := range recs[from:] {
			frame, err := EncodeFrame(rec)
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, frame...)
		}
		got, last, err := st.FramesAfter(uint64(from))
		if err != nil || last != uint64(len(recs)) {
			t.Fatalf("FramesAfter(%d): last=%d err=%v", from, last, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("FramesAfter(%d) shipped %q, want %q", from, got, want)
		}
	}
}

// TestEncodeFrameMatchesWriter proves EncodeFrame produces exactly the
// bytes Writer.Append puts in the journal, and that they decode with
// the one frame reader.
func TestEncodeFrameMatchesWriter(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.wal")
	rec := Record{Seq: 1, Op: "add_rule", Src: "rule r9: jaccard(name, name) >= 0.5"}
	w, err := OpenWriter(faultio.OS, path, SyncPolicy{Mode: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(rec); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	frame, err := EncodeFrame(rec)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data[len(Magic):], frame) {
		t.Fatal("EncodeFrame bytes differ from Writer.Append bytes")
	}
	recs, err := DecodeFrames(frame)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Op != "add_rule" {
		t.Fatalf("frame decoded to %+v", recs)
	}
}

// FuzzFrames drives the one frame reader with arbitrary bytes. Nothing
// may panic; DecodeFrames fails exactly when the same bytes behind the
// magic read as a torn journal, and otherwise returns the same records;
// re-framing those records decodes back to them; and the good prefix
// never runs past the input.
func FuzzFrames(f *testing.F) {
	rec := Record{Seq: 1, Op: "relax", Rule: 0, Pred: 1, Threshold: 0.4}
	frame, err := EncodeFrame(rec)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(frame)
	f.Fuzz(func(t *testing.T, b []byte) {
		recs, err := DecodeFrames(b)
		lg := parseLog(append([]byte(Magic), b...))
		if lg.GoodSize > int64(len(Magic)+len(b)) {
			t.Fatalf("good prefix %d runs past %d bytes", lg.GoodSize, len(Magic)+len(b))
		}
		if (err != nil) != lg.Torn {
			t.Fatalf("DecodeFrames err=%v but journal torn=%v", err, lg.Torn)
		}
		if err != nil {
			return
		}
		if !sameRecords(recs, lg.Records) {
			t.Fatalf("DecodeFrames and ReadLog disagree: %+v vs %+v", recs, lg.Records)
		}
		var again []byte
		for _, rec := range recs {
			frame, err := EncodeFrame(rec)
			if err != nil {
				return // escaping can push a near-limit payload past MaxRecordBytes
			}
			again = append(again, frame...)
		}
		back, err := DecodeFrames(again)
		if err != nil || !sameRecords(back, recs) {
			t.Fatalf("re-framed records decode to %+v (err %v), want %+v", back, err, recs)
		}
	})
}

// sameRecords compares records by their JSON form, the form a frame
// carries: a decoded empty slice and an absent one encode alike.
func sameRecords(a, b []Record) bool {
	ja, errA := json.Marshal(a)
	jb, errB := json.Marshal(b)
	return errA == nil && errB == nil && bytes.Equal(ja, jb)
}
