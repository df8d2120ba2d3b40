package persist

import (
	"bytes"
	"fmt"
	"testing"

	"rulematch/internal/block"
	"rulematch/internal/incremental"
	"rulematch/internal/sim"
	"rulematch/internal/table"
)

// churnedSession builds a session and puts it through appends, deletes
// and a rule edit, so compaction has tombstones and dead pairs to drop.
func churnedSession(t *testing.T) *incremental.Session {
	t.Helper()
	s, _, _ := buildSession(t)
	s.Blocker = block.AttrEquivalence{Attr: "city"}
	if err := s.AddRecords(
		[]table.Record{{ID: "a9", Values: []string{"maria garcia", "chicago"}}},
		[]table.Record{{ID: "b9", Values: []string{"marie garcia", "chicago"}}},
	); err != nil {
		t.Fatal(err)
	}
	if err := s.DeleteRecords([]string{"a1"}, []string{"b3"}); err != nil {
		t.Fatal(err)
	}
	if err := s.SetThreshold(1, 0, 0.6); err != nil {
		t.Fatal(err)
	}
	return s
}

// matchedIDs is the layout-independent view of the match result: the
// set of matched (idA, idB) pairs.
func matchedIDs(s *incremental.Session) map[string]bool {
	out := make(map[string]bool)
	for pi, p := range s.M.Pairs {
		if s.DeadPairs() != nil && s.DeadPairs().Get(pi) {
			continue
		}
		if s.St.Matched.Get(pi) {
			out[s.M.C.A.Records[p.A].ID+"|"+s.M.C.B.Records[p.B].ID] = true
		}
	}
	return out
}

func TestCompactDropsTombstonesAndDeadPairs(t *testing.T) {
	s := churnedSession(t)
	if s.M.C.A.NumDeleted() == 0 || s.NumDead() == 0 {
		t.Fatal("test setup: expected tombstones and dead pairs")
	}
	cs, err := Compact(s, sim.Standard())
	if err != nil {
		t.Fatal(err)
	}
	if n := cs.M.C.A.NumDeleted() + cs.M.C.B.NumDeleted(); n != 0 {
		t.Errorf("compacted session still has %d tombstoned records", n)
	}
	if n := cs.NumDead(); n != 0 {
		t.Errorf("compacted session still has %d dead pairs", n)
	}
	if got, want := len(cs.M.Pairs), s.LivePairCount(); got != want {
		t.Errorf("compacted pair count = %d, want live count %d", got, want)
	}
	if got, want := matchedIDs(cs), matchedIDs(s); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("matched pairs changed under compaction:\n got %v\nwant %v", got, want)
	}
	if err := cs.VerifyDeep(); err != nil {
		t.Errorf("compacted session fails verification: %v", err)
	}
	// Every live pair keeps each memo entry at its new index, and a row
	// is allocated exactly when it holds a live entry.
	var live []int
	for pi := range s.M.Pairs {
		if !s.DeadPairs().Get(pi) {
			live = append(live, pi)
		}
	}
	for fi, f := range s.M.C.Features {
		fi2 := cs.M.C.FeatureIndex(f.Key)
		held := 0
		for ni, opi := range live {
			v, ok := s.M.Memo.Get(fi, opi)
			v2, ok2 := cs.M.Memo.Get(fi2, ni)
			if ok != ok2 || v != v2 {
				t.Fatalf("feature %s pair %d→%d: memo %v,%v after compaction, want %v,%v", f.Key, opi, ni, v2, ok2, v, ok)
			}
			if ok {
				held++
			}
		}
		if _, present := cs.M.Memo.Row(fi2); (present != nil) != (held > 0) {
			t.Errorf("feature %s: row allocated %v with %d live entries", f.Key, present != nil, held)
		}
	}
	// The input is untouched.
	if s.M.C.A.NumDeleted() == 0 || s.NumDead() == 0 {
		t.Error("Compact mutated its input")
	}
}

// A compacted snapshot is self-contained: base lengths are zero, so it
// reloads against empty tables (only the schema matters). This is what
// lets eviction publish the snapshot before rewriting the table CSVs.
func TestCompactSnapshotSelfContained(t *testing.T) {
	s := churnedSession(t)
	cs, err := Compact(s, sim.Standard())
	if err != nil {
		t.Fatal(err)
	}
	if ba, bb := cs.BaseLens(); ba != 0 || bb != 0 {
		t.Fatalf("compacted base lengths = (%d, %d), want (0, 0)", ba, bb)
	}
	var buf bytes.Buffer
	if err := Save(&buf, cs); err != nil {
		t.Fatal(err)
	}
	emptyA := table.MustNew("A", cs.M.C.A.Attrs)
	emptyB := table.MustNew("B", cs.M.C.B.Attrs)
	got, err := Load(bytes.NewReader(buf.Bytes()), sim.Standard(), emptyA, emptyB)
	if err != nil {
		t.Fatalf("load against empty tables: %v", err)
	}
	if err := got.VerifyDeep(); err != nil {
		t.Errorf("reloaded session fails verification: %v", err)
	}
	if gm, wm := fmt.Sprint(matchedIDs(got)), fmt.Sprint(matchedIDs(s)); gm != wm {
		t.Errorf("matched pairs after reload:\n got %s\nwant %s", gm, wm)
	}
	// The memo rode along warm: a full re-run computes nothing.
	before := got.M.Stats
	mustRun(t, got)
	if n := got.M.Stats.FeatureComputes - before.FeatureComputes; n != 0 {
		t.Errorf("reloaded compacted session recomputed %d features", n)
	}
}

// Compaction is canonical: compacting a compacted session is a no-op
// at the byte level. The differential churn tests lean on this to
// compare sessions with different delete histories.
func TestCompactIdempotentBytes(t *testing.T) {
	s := churnedSession(t)
	c1, err := Compact(s, sim.Standard())
	if err != nil {
		t.Fatal(err)
	}
	c2, err := Compact(c1, sim.Standard())
	if err != nil {
		t.Fatal(err)
	}
	var b1, b2 bytes.Buffer
	if err := Save(&b1, c1); err != nil {
		t.Fatal(err)
	}
	if err := Save(&b2, c2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Errorf("Compact∘Compact changed snapshot bytes: %d vs %d", b1.Len(), b2.Len())
	}
}

// Compacting a session without deletes must not change what a snapshot
// says about the match result, and the compacted session keeps
// accepting incremental ops.
func TestCompactCleanSessionStillEditable(t *testing.T) {
	s, _, _ := buildSession(t)
	s.Blocker = block.AttrEquivalence{Attr: "city"}
	cs, err := Compact(s, sim.Standard())
	if err != nil {
		t.Fatal(err)
	}
	if gm, wm := fmt.Sprint(matchedIDs(cs)), fmt.Sprint(matchedIDs(s)); gm != wm {
		t.Errorf("matched pairs changed: got %s want %s", gm, wm)
	}
	if err := cs.SetThreshold(1, 0, 0.5); err != nil {
		t.Fatal(err)
	}
	if err := cs.Verify(); err != nil {
		t.Errorf("edit on compacted session broke invariants: %v", err)
	}
	// Released IDs are appendable again after a delete+compact cycle.
	if err := cs.DeleteRecords([]string{"a0"}, nil); err != nil {
		t.Fatal(err)
	}
	cs2, err := Compact(cs, sim.Standard())
	if err != nil {
		t.Fatal(err)
	}
	if err := cs2.AddRecords([]table.Record{{ID: "a0", Values: []string{"matthew richardson", "seattle"}}}, nil); err != nil {
		t.Errorf("re-append of a compacted-away ID: %v", err)
	}
	if err := cs2.Verify(); err != nil {
		t.Errorf("after re-append: %v", err)
	}
}
