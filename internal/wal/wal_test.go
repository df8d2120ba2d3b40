package wal

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"rulematch/internal/core"
	"rulematch/internal/faultio"
	"rulematch/internal/incremental"
	"rulematch/internal/rule"
	"rulematch/internal/sim"
	"rulematch/internal/table"
)

func testRecords(n int) []Record {
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = Record{
			Seq: uint64(i + 1), Op: "set_threshold", Rule: i % 3, Pred: i % 2,
			Threshold: 0.5 + float64(i)/100,
		}
	}
	return recs
}

func writeJournal(t *testing.T, path string, recs []Record) {
	t.Helper()
	w, err := OpenWriter(faultio.OS, path, SyncPolicy{Mode: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.wal")
	recs := testRecords(10)
	recs[3] = Record{Seq: 4, Op: "add_rule", Src: "rule rx: jaccard(name, name) >= 0.3"}
	writeJournal(t, path, recs)
	log, err := ReadLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if log.Torn {
		t.Fatal("clean journal reported torn")
	}
	if len(log.Records) != len(recs) {
		t.Fatalf("read %d records, want %d", len(log.Records), len(recs))
	}
	for i := range recs {
		if fmt.Sprintf("%+v", log.Records[i]) != fmt.Sprintf("%+v", recs[i]) {
			t.Fatalf("record %d: %+v != %+v", i, log.Records[i], recs[i])
		}
	}
	if log.LastSeq() != 10 {
		t.Fatalf("LastSeq = %d", log.LastSeq())
	}
	fi, _ := os.Stat(path)
	if log.GoodSize != fi.Size() {
		t.Fatalf("GoodSize %d != file size %d", log.GoodSize, fi.Size())
	}
}

func TestMissingJournalIsEmpty(t *testing.T) {
	log, err := ReadLog(filepath.Join(t.TempDir(), "nope.wal"))
	if err != nil {
		t.Fatal(err)
	}
	if log.Torn || len(log.Records) != 0 || log.GoodSize != 0 {
		t.Fatalf("missing journal: %+v", log)
	}
}

// TestTornTailAtEveryOffset truncates a valid journal at every byte
// offset: the parse must always return a clean record prefix, and a
// repair + re-append must produce a valid journal again.
func TestTornTailAtEveryOffset(t *testing.T) {
	dir := t.TempDir()
	full := filepath.Join(dir, "full.wal")
	recs := testRecords(5)
	writeJournal(t, full, recs)
	data, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	// Record boundaries for prefix-count verification.
	wantAt := func(size int64) int {
		n := 0
		off := int64(len(Magic))
		for _, rec := range recs {
			frame := recordFrameSize(t, rec)
			if off+frame <= size {
				n++
				off += frame
			} else {
				break
			}
		}
		return n
	}
	for cut := 0; cut <= len(data); cut++ {
		path := filepath.Join(dir, "cut.wal")
		if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		log, err := ReadLog(path)
		if err != nil {
			t.Fatalf("cut=%d: %v", cut, err)
		}
		if want := wantAt(int64(cut)); len(log.Records) != want {
			t.Fatalf("cut=%d: %d records survive, want %d", cut, len(log.Records), want)
		}
		if cut < len(data) && !log.Torn && int64(cut) != log.GoodSize {
			t.Fatalf("cut=%d: not reported torn (GoodSize %d)", cut, log.GoodSize)
		}
		// Repair, then append one more record: the journal must read
		// back as the surviving prefix plus the new record.
		if err := RepairFile(faultio.OS, path, log); err != nil {
			t.Fatalf("cut=%d: repair: %v", cut, err)
		}
		w, err := OpenWriter(faultio.OS, path, SyncPolicy{Mode: SyncNever})
		if err != nil {
			t.Fatalf("cut=%d: reopen: %v", cut, err)
		}
		next := Record{Seq: log.LastSeq() + 1, Op: "remove_rule", Rule: 1}
		if err := w.Append(next); err != nil {
			t.Fatalf("cut=%d: append after repair: %v", cut, err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		relog, err := ReadLog(path)
		if err != nil || relog.Torn {
			t.Fatalf("cut=%d: reread after repair: torn=%v err=%v", cut, relog.Torn, err)
		}
		if len(relog.Records) != len(log.Records)+1 {
			t.Fatalf("cut=%d: %d records after repair+append, want %d", cut, len(relog.Records), len(log.Records)+1)
		}
	}
}

// TestBitFlipStopsAtCorruptRecord flips one bit in each record region
// and asserts the surviving prefix is exactly the records before it.
func TestBitFlipStopsAtCorruptRecord(t *testing.T) {
	dir := t.TempDir()
	full := filepath.Join(dir, "full.wal")
	recs := testRecords(5)
	writeJournal(t, full, recs)
	data, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	off := int64(len(Magic))
	for i, rec := range recs {
		frame := recordFrameSize(t, rec)
		mid := off + frame/2
		mut := append([]byte(nil), data...)
		mut[mid] ^= 0x40
		path := filepath.Join(dir, "flip.wal")
		if err := os.WriteFile(path, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		log, err := ReadLog(path)
		if err != nil {
			t.Fatal(err)
		}
		if !log.Torn {
			t.Fatalf("flip in record %d not detected", i)
		}
		if len(log.Records) != i {
			t.Fatalf("flip in record %d: %d records survive, want %d", i, len(log.Records), i)
		}
		off += frame
	}
}

func TestMagicTornHeader(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.wal")
	if err := os.WriteFile(path, []byte(Magic[:3]), 0o644); err != nil {
		t.Fatal(err)
	}
	log, err := ReadLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if !log.Torn || log.GoodSize != 0 || len(log.Records) != 0 {
		t.Fatalf("torn header: %+v", log)
	}
	if err := RepairFile(faultio.OS, path, log); err != nil {
		t.Fatal(err)
	}
	// A repaired empty file gets a fresh header on open.
	w, err := OpenWriter(faultio.OS, path, SyncPolicy{Mode: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(Record{Seq: 1, Op: "remove_rule"}); err != nil {
		t.Fatal(err)
	}
	w.Close()
	relog, err := ReadLog(path)
	if err != nil || relog.Torn || len(relog.Records) != 1 {
		t.Fatalf("after header repair: torn=%v n=%d err=%v", relog.Torn, len(relog.Records), err)
	}
}

func TestNonMonotonicSeqIsTorn(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.wal")
	writeJournal(t, path, []Record{
		{Seq: 1, Op: "remove_rule"},
		{Seq: 2, Op: "remove_rule"},
		{Seq: 2, Op: "remove_rule"}, // repeat
	})
	log, err := ReadLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if !log.Torn || len(log.Records) != 2 {
		t.Fatalf("seq repeat: torn=%v n=%d", log.Torn, len(log.Records))
	}
}

func TestParseSyncPolicy(t *testing.T) {
	cases := []struct {
		in   string
		want SyncPolicy
		err  bool
	}{
		{in: "always", want: SyncPolicy{Mode: SyncAlways}},
		{in: "never", want: SyncPolicy{Mode: SyncNever}},
		{in: "100ms", want: SyncPolicy{Mode: SyncInterval, Interval: 100 * time.Millisecond}},
		{in: "bogus", err: true},
		{in: "-5s", err: true},
		{in: "", err: true},
	}
	for _, c := range cases {
		got, err := ParseSyncPolicy(c.in)
		if c.err != (err != nil) {
			t.Errorf("%q: err = %v", c.in, err)
			continue
		}
		if err == nil && got != c.want {
			t.Errorf("%q: %+v != %+v", c.in, got, c.want)
		}
	}
	if s := (SyncPolicy{Mode: SyncAlways}).String(); s != "always" {
		t.Errorf("String always = %q", s)
	}
	if s := (SyncPolicy{Mode: SyncInterval, Interval: time.Second}).String(); s != "1s" {
		t.Errorf("String interval = %q", s)
	}
}

// recordFrameSize computes a record's on-disk frame size.
func recordFrameSize(t *testing.T, rec Record) int64 {
	t.Helper()
	dir := t.TempDir()
	path := filepath.Join(dir, "one.wal")
	writeJournal(t, path, []Record{rec})
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size() - int64(len(Magic))
}

// --- replay tests ---

// buildSessionT mirrors the persist tests' small two-table session.
func buildSessionT(t *testing.T) (*incremental.Session, *table.Table, *table.Table) {
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
	var pairs []table.Pair
	for i := range rowsA {
		for j := range rowsB {
			pairs = append(pairs, table.Pair{A: int32(i), B: int32(j)})
		}
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
	if err := s.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	return s, a, b
}

func TestApplyMirrorsDirectOps(t *testing.T) {
	s1, _, _ := buildSessionT(t)
	s2, _, _ := buildSessionT(t)

	recs := []Record{
		{Seq: 1, Op: "add_predicate", Rule: 1, Src: "jaccard(city, city) >= 0.2"},
		{Seq: 2, Op: "tighten", Rule: 0, Pred: 0, Threshold: 0.92},
		{Seq: 3, Op: "relax", Rule: 1, Pred: 0, Threshold: 0.7},
		{Seq: 4, Op: "set_threshold", Rule: 1, Pred: 1, Threshold: 0.25},
		{Seq: 5, Op: "add_rule", Src: "rule r3: soundex(name, name) >= 0.5"},
		{Seq: 6, Op: "remove_predicate", Rule: 1, Pred: 1},
		{Seq: 7, Op: "remove_rule", Rule: 0},
	}
	// Direct calls on s1.
	p, _ := rule.ParsePredicate("jaccard(city, city) >= 0.2")
	if err := s1.AddPredicate(1, p); err != nil {
		t.Fatal(err)
	}
	if err := s1.TightenPredicate(0, 0, 0.92); err != nil {
		t.Fatal(err)
	}
	if err := s1.RelaxPredicate(1, 0, 0.7); err != nil {
		t.Fatal(err)
	}
	if err := s1.SetThreshold(1, 1, 0.25); err != nil {
		t.Fatal(err)
	}
	r3, _ := rule.ParseRule("r3: soundex(name, name) >= 0.5")
	if err := s1.AddRule(r3); err != nil {
		t.Fatal(err)
	}
	if err := s1.RemovePredicate(1, 1); err != nil {
		t.Fatal(err)
	}
	if err := s1.RemoveRule(0); err != nil {
		t.Fatal(err)
	}
	// Replay on s2.
	seq, err := Replay(s2, recs, 0)
	if err != nil {
		t.Fatal(err)
	}
	if seq != 7 {
		t.Fatalf("replayed to seq %d", seq)
	}
	if !s2.St.Equal(s1.St) {
		t.Fatal("replayed state differs from direct operations")
	}
	if err := s2.VerifyDeep(); err != nil {
		t.Fatal(err)
	}
}

func TestApplyRejectsUnknownOp(t *testing.T) {
	s, _, _ := buildSessionT(t)
	if err := Apply(s, Record{Seq: 1, Op: "frobnicate"}); err == nil {
		t.Fatal("unknown op applied")
	}
	if err := Apply(s, Record{Seq: 1, Op: "add_predicate", Rule: 0, Src: "not a predicate"}); err == nil {
		t.Fatal("garbage predicate applied")
	}
}

func TestReplaySkipsSnapshotCoveredRecords(t *testing.T) {
	s1, _, _ := buildSessionT(t)
	s2, _, _ := buildSessionT(t)
	recs := []Record{
		{Seq: 1, Op: "set_threshold", Rule: 1, Pred: 0, Threshold: 0.6},
		{Seq: 2, Op: "set_threshold", Rule: 1, Pred: 0, Threshold: 0.8},
	}
	// s1 already has record 1 folded in (as a snapshot would).
	if err := s1.SetThreshold(1, 0, 0.6); err != nil {
		t.Fatal(err)
	}
	if _, err := Replay(s1, recs, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := Replay(s2, recs, 0); err != nil {
		t.Fatal(err)
	}
	if !s1.St.Equal(s2.St) {
		t.Fatal("afterSeq replay diverged from full replay")
	}
}
