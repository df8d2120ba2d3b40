package server

import (
	"net/http"
	"testing"
)

// postRecords POSTs one record batch and returns the status code.
func postRecords(t *testing.T, url, name string, req RecordsRequest, out any) int {
	t.Helper()
	return doJSON(t, "POST", url+"/v1/sessions/"+name+"/records", req, out)
}

// TestRecordsAppendDelete streams appends and deletes into a live
// session and checks the delta-only evaluation counters: every append
// examines exactly the delta pairs the blocker produced, never the
// whole candidate set.
func TestRecordsAppendDelete(t *testing.T) {
	ts, _ := newTestServer(t)
	info := createSession(t, ts, "s1") // 18 pairs: two cat groups of 3x3

	// Append one record per side: a6 joins the c2 group (3 live B
	// partners), b6 the c1 group (3 live A partners).
	var resp RecordsResponse
	code := postRecords(t, ts.URL, "s1", RecordsRequest{
		AppendA: []RecordRow{{ID: "a6", Values: []string{"c2", "maria garcia", "chicago"}}},
		AppendB: []RecordRow{{ID: "b6", Values: []string{"c1", "jane smith", "madison"}}},
	}, &resp)
	if code != http.StatusOK {
		t.Fatalf("append: status %d", code)
	}
	if resp.Appended != 2 || resp.Deleted != 0 || resp.DeleteReport != nil || resp.AppendReport == nil {
		t.Fatalf("append response: %+v", resp)
	}
	rep := resp.AppendReport
	if rep.PairsAdded != 6 {
		t.Fatalf("pairsAdded %d, want 6", rep.PairsAdded)
	}
	// The incrementality contract: only delta pairs get evaluated.
	if rep.PairsExamined != rep.PairsAdded {
		t.Fatalf("examined %d pairs for %d delta pairs", rep.PairsExamined, rep.PairsAdded)
	}
	if int(rep.Stats.PairEvals) != rep.PairsAdded {
		t.Fatalf("engine evaluated %d pairs, want %d", rep.Stats.PairEvals, rep.PairsAdded)
	}
	if resp.Pairs != info.Pairs+6 {
		t.Fatalf("live pairs %d, want %d", resp.Pairs, info.Pairs+6)
	}
	mustVerify(t, ts, "s1", "after append")

	// Delete a5: its 3 pairs (against b3,b4,b5) are tombstoned.
	resp = RecordsResponse{}
	code = postRecords(t, ts.URL, "s1", RecordsRequest{DeleteA: []string{"a5"}}, &resp)
	if code != http.StatusOK {
		t.Fatalf("delete: status %d", code)
	}
	if resp.Deleted != 1 || resp.Appended != 0 || resp.AppendReport != nil || resp.DeleteReport == nil {
		t.Fatalf("delete response: %+v", resp)
	}
	if resp.DeleteReport.PairsRemoved != 3 {
		t.Fatalf("pairsRemoved %d, want 3", resp.DeleteReport.PairsRemoved)
	}
	if resp.Pairs != info.Pairs+6-3 {
		t.Fatalf("live pairs after delete %d, want %d", resp.Pairs, info.Pairs+3)
	}
	mustVerify(t, ts, "s1", "after delete")

	// Mixed batch: the delete applies first, so b7 pairs only against
	// the surviving c2 records (a3, a4, a6 — a5 is already gone).
	resp = RecordsResponse{}
	code = postRecords(t, ts.URL, "s1", RecordsRequest{
		DeleteB: []string{"b5"},
		AppendB: []RecordRow{{ID: "b7", Values: []string{"c2", "someone new", "nowhere"}}},
	}, &resp)
	if code != http.StatusOK {
		t.Fatalf("mixed batch: status %d", code)
	}
	if resp.Deleted != 1 || resp.Appended != 1 || resp.DeleteReport == nil || resp.AppendReport == nil {
		t.Fatalf("mixed response: %+v", resp)
	}
	if resp.DeleteReport.PairsRemoved != 3 {
		t.Fatalf("mixed pairsRemoved %d, want 3 (b5 x a3,a4,a6)", resp.DeleteReport.PairsRemoved)
	}
	if resp.AppendReport.PairsAdded != 3 {
		t.Fatalf("mixed pairsAdded %d, want 3 (b7 x a3,a4,a6)", resp.AppendReport.PairsAdded)
	}
	mustVerify(t, ts, "s1", "after mixed batch")
}

// TestRecordsValidation covers the failure modes: empty batches,
// duplicate IDs, arity mismatches, unknown sessions — and that a
// failed mixed request applies nothing (all-or-nothing).
func TestRecordsValidation(t *testing.T) {
	ts, _ := newTestServer(t)
	createSession(t, ts, "s1")
	var e ErrorResponse

	if code := postRecords(t, ts.URL, "s1", RecordsRequest{}, nil); code != http.StatusBadRequest {
		t.Fatalf("empty batch: status %d", code)
	}
	if code := postRecords(t, ts.URL, "nope", RecordsRequest{DeleteA: []string{"a0"}}, &e); code != http.StatusNotFound {
		t.Fatalf("unknown session: status %d", code)
	}
	if code := postRecords(t, ts.URL, "s1", RecordsRequest{
		AppendA: []RecordRow{{ID: "a0", Values: []string{"c1", "dup", "dup"}}},
	}, &e); code != http.StatusBadRequest {
		t.Fatalf("duplicate ID: status %d", code)
	}
	if code := postRecords(t, ts.URL, "s1", RecordsRequest{
		AppendA: []RecordRow{{ID: "a9", Values: []string{"only-one-value"}}},
	}, &e); code != http.StatusBadRequest {
		t.Fatalf("arity mismatch: status %d", code)
	}
	if code := postRecords(t, ts.URL, "s1", RecordsRequest{DeleteB: []string{"b9"}}, &e); code != http.StatusBadRequest {
		t.Fatalf("unknown delete ID: status %d", code)
	}

	// All-or-nothing: an invalid append rejects the whole request, so
	// the valid delete riding along must not have been applied.
	if code := postRecords(t, ts.URL, "s1", RecordsRequest{
		DeleteA: []string{"a0"},
		AppendB: []RecordRow{{ID: "b0", Values: []string{"c1", "dup", "dup"}}},
	}, &e); code != http.StatusBadRequest {
		t.Fatalf("mixed invalid batch: status %d", code)
	}
	var resp RecordsResponse
	if code := postRecords(t, ts.URL, "s1", RecordsRequest{DeleteA: []string{"a0"}}, &resp); code != http.StatusOK {
		t.Fatalf("a0 was deleted by the rejected batch: status %d", code)
	}
	if resp.DeleteReport.PairsRemoved != 3 {
		t.Fatalf("a0 lost pairs before its delete: removed %d, want 3", resp.DeleteReport.PairsRemoved)
	}
	mustVerify(t, ts, "s1", "after validation probes")
}

// TestDurableRecordsRestartRecover is the data-side kill -9 round
// trip: record batches journal as they commit, the server dies without
// shutdown, and recovery rebuilds a byte-identical session — grown
// tables, tombstones and blocker included — that keeps accepting
// record batches.
func TestDurableRecordsRestartRecover(t *testing.T) {
	dir := t.TempDir()
	ts, _ := newDurableServer(t, dir, nil)
	createSession(t, ts, "s1")
	// Interleave a rule edit with record batches so replay exercises
	// both kinds in order.
	applyEdits(t, ts, "s1", []EditRequest{{Op: "set_threshold", Rule: 1, Pred: 0, Threshold: 0.6}})
	var resp RecordsResponse
	if code := postRecords(t, ts.URL, "s1", RecordsRequest{
		AppendA: []RecordRow{{ID: "a6", Values: []string{"c2", "maria garcia", "chicago"}}},
		AppendB: []RecordRow{{ID: "b6", Values: []string{"c1", "jane smith", "madison"}}},
	}, &resp); code != http.StatusOK {
		t.Fatalf("append: status %d", code)
	}
	if code := postRecords(t, ts.URL, "s1", RecordsRequest{
		DeleteA: []string{"a5"}, DeleteB: []string{"b5"},
		AppendB: []RecordRow{{ID: "b7", Values: []string{"c2", "sara jones", "portland"}}},
	}, &resp); code != http.StatusOK {
		t.Fatalf("mixed batch: status %d", code)
	}
	mustVerify(t, ts, "s1", "before kill")
	var st StatsResponse
	doJSON(t, "GET", ts.URL+"/v1/sessions/s1/stats", nil, &st)
	if !st.Durable {
		t.Fatalf("session not durable: %+v", st)
	}
	// 1 edit + 1 append + (1 delete + 1 append) = 4 journal records.
	if st.Seq != 4 {
		t.Fatalf("seq %d, want 4", st.Seq)
	}
	before := getSnapshot(t, ts, "s1")
	// Kill: no Close, no journal sync beyond the per-batch fsyncs.
	ts.Close()

	ts2, srv2 := newDurableServer(t, dir, nil)
	if srv2.SessionCount() != 1 {
		t.Fatalf("recovered %d sessions, want 1", srv2.SessionCount())
	}
	mustVerify(t, ts2, "s1", "after recovery")
	after := getSnapshot(t, ts2, "s1")
	if string(before) != string(after) {
		t.Fatal("recovered session snapshot differs from the pre-kill one")
	}
	// The recovered blocker keeps accepting record batches, journaled
	// at the next sequence number.
	if code := postRecords(t, ts2.URL, "s1", RecordsRequest{
		AppendB: []RecordRow{{ID: "b8", Values: []string{"c1", "john smith", "madison"}}},
	}, &resp); code != http.StatusOK {
		t.Fatalf("append after recovery: status %d", code)
	}
	if resp.AppendReport == nil || resp.AppendReport.PairsAdded == 0 {
		t.Fatalf("post-recovery append produced no delta pairs: %+v", resp)
	}
	doJSON(t, "GET", ts2.URL+"/v1/sessions/s1/stats", nil, &st)
	if st.Seq != 5 {
		t.Fatalf("post-recovery seq %d, want 5", st.Seq)
	}
	mustVerify(t, ts2, "s1", "after post-recovery append")
}

// TestPairCountsAgreeAcrossEndpoints: after a delete that leaves dead
// pairs awaiting reclamation, the records ack, the session listing and
// /stats all report the same live pair count, and /stats reports the
// dead pairs separately.
func TestPairCountsAgreeAcrossEndpoints(t *testing.T) {
	ts, _ := newTestServer(t)
	info := createSession(t, ts, "s1") // 18 pairs: two cat groups of 3x3
	var ack RecordsResponse
	if code := postRecords(t, ts.URL, "s1", RecordsRequest{DeleteA: []string{"a5"}}, &ack); code != http.StatusOK {
		t.Fatalf("delete: status %d", code)
	}
	if ack.DeleteReport == nil || ack.DeleteReport.PairsRemoved != 3 || ack.DeleteReport.PairsReclaimed != 0 {
		t.Fatalf("delete report %+v, want 3 pairs removed and none reclaimed", ack.DeleteReport)
	}
	var list SessionList
	if code := doJSON(t, "GET", ts.URL+"/v1/sessions", nil, &list); code != http.StatusOK || len(list.Sessions) != 1 {
		t.Fatalf("list: status %d, %d sessions", code, len(list.Sessions))
	}
	var st StatsResponse
	if code := doJSON(t, "GET", ts.URL+"/v1/sessions/s1/stats", nil, &st); code != http.StatusOK {
		t.Fatalf("stats: status %d", code)
	}
	want := info.Pairs - 3
	if ack.Pairs != want || list.Sessions[0].Pairs != want || st.Pairs != want {
		t.Fatalf("live pairs: ack %d, listing %d, stats %d, want %d", ack.Pairs, list.Sessions[0].Pairs, st.Pairs, want)
	}
	if st.DeadPairs != 3 {
		t.Fatalf("stats deadPairs %d, want 3", st.DeadPairs)
	}
}
