package server

import (
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"rulematch/internal/core"
	"rulematch/internal/faultio"
	"rulematch/internal/wal"
)

// newDurableServer builds a server persisting to dir over fsys.
func newDurableServer(t *testing.T, dir string, fsys faultio.FS) (*httptest.Server, *Server) {
	t.Helper()
	srv := New(core.Config{Workers: 2})
	if err := srv.EnableDurability(Durability{Dir: dir, Policy: wal.SyncPolicy{Mode: wal.SyncAlways}, FS: fsys}); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.RecoverSessions(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, srv
}

// durableEdits exercises every edit kind; each one must journal.
func durableEdits() []EditRequest {
	return []EditRequest{
		{Op: "set_threshold", Rule: 1, Pred: 0, Threshold: 0.6},
		{Op: "add_predicate", Rule: 0, Predicate: "exact_match(city, city) >= 1"},
		{Op: "relax", Rule: 0, Pred: 0, Threshold: 0.85},
		{Op: "add_rule", RuleSrc: "rule r3: jaccard(name, name) >= 0.4"},
		{Op: "tighten", Rule: 2, Pred: 0, Threshold: 0.5},
		{Op: "remove_predicate", Rule: 0, Pred: 2},
		{Op: "remove_rule", Rule: 1},
	}
}

func applyEdits(t *testing.T, ts *httptest.Server, name string, edits []EditRequest) {
	t.Helper()
	for _, e := range edits {
		var out EditResponse
		if code := doJSON(t, "POST", ts.URL+"/v1/sessions/"+name+"/edits", e, &out); code != http.StatusOK {
			t.Fatalf("edit %+v: status %d", e, code)
		}
	}
}

func getSnapshot(t *testing.T, ts *httptest.Server, name string) []byte {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/sessions/" + name + "/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot: status %d", resp.StatusCode)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestDurableEditRestartRecover is the kill -9 round trip: edits are
// journaled as they commit, the server is torn down without any
// graceful shutdown, and a fresh server over the same datadir recovers
// a byte-identical session that keeps accepting edits.
func TestDurableEditRestartRecover(t *testing.T) {
	dir := t.TempDir()
	ts, _ := newDurableServer(t, dir, nil)
	createSession(t, ts, "s1")
	applyEdits(t, ts, "s1", durableEdits())
	mustVerify(t, ts, "s1", "before kill")
	before := getSnapshot(t, ts, "s1")
	var st StatsResponse
	doJSON(t, "GET", ts.URL+"/v1/sessions/s1/stats", nil, &st)
	if !st.Durable {
		t.Fatalf("session not durable: %+v", st)
	}
	if st.Seq != uint64(len(durableEdits())) {
		t.Fatalf("seq %d, want %d", st.Seq, len(durableEdits()))
	}
	// Kill: no Close, no journal sync beyond the per-edit fsyncs.
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
	// The recovered session keeps journaling.
	applyEdits(t, ts2, "s1", []EditRequest{{Op: "set_threshold", Rule: 0, Pred: 0, Threshold: 0.8}})
	mustVerify(t, ts2, "s1", "after post-recovery edit")
	doJSON(t, "GET", ts2.URL+"/v1/sessions/s1/stats", nil, &st)
	if st.Seq != uint64(len(durableEdits()))+1 {
		t.Fatalf("post-recovery seq %d", st.Seq)
	}
}

// TestDurableDelete removes the on-disk session directory with the
// session.
func TestDurableDelete(t *testing.T) {
	dir := t.TempDir()
	ts, _ := newDurableServer(t, dir, nil)
	createSession(t, ts, "gone")
	if _, err := os.Stat(filepath.Join(dir, "gone", wal.SnapshotFile)); err != nil {
		t.Fatalf("durable session has no snapshot: %v", err)
	}
	if code := doJSON(t, "DELETE", ts.URL+"/v1/sessions/gone", nil, nil); code != http.StatusNoContent {
		t.Fatalf("delete: status %d", code)
	}
	if _, err := os.Stat(filepath.Join(dir, "gone")); !os.IsNotExist(err) {
		t.Fatalf("session directory survived delete: %v", err)
	}
}

// TestDurableNameValidation rejects names that cannot be directories.
func TestDurableNameValidation(t *testing.T) {
	ts, _ := newDurableServer(t, t.TempDir(), nil)
	var e ErrorResponse
	code := doJSON(t, "POST", ts.URL+"/v1/sessions", CreateSessionRequest{
		Name: "../escape", TableA: tableACSV, TableB: tableBCSV,
		Rules: rulesDSL, Block: "cat",
	}, &e)
	if code != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", code)
	}
}

// TestDurableDegradesToEphemeral proves the graceful-degradation path:
// when journaling starts failing mid-session, edits keep succeeding,
// the session flips to ephemeral and /stats says why.
func TestDurableDegradesToEphemeral(t *testing.T) {
	// Dry run: count the filesystem ops a create consumes, so the
	// injected failure lands on the first edit's journal append.
	dry := &faultio.Injector{Base: faultio.OS}
	tsDry, _ := newDurableServer(t, t.TempDir(), dry)
	createSession(t, tsDry, "s1")
	tsDry.Close()

	inj := &faultio.Injector{Base: faultio.OS, Mode: faultio.ModeCrash, At: dry.Ops() + 1}
	ts, _ := newDurableServer(t, t.TempDir(), inj)
	createSession(t, ts, "s1")
	var out EditResponse
	code := doJSON(t, "POST", ts.URL+"/v1/sessions/s1/edits",
		EditRequest{Op: "set_threshold", Rule: 1, Pred: 0, Threshold: 0.6}, &out)
	if code != http.StatusOK {
		t.Fatalf("edit during journal failure: status %d (the edit itself must survive)", code)
	}
	var st StatsResponse
	doJSON(t, "GET", ts.URL+"/v1/sessions/s1/stats", nil, &st)
	if st.Durable {
		t.Fatal("session still claims durable after journal failure")
	}
	if st.PersistErr == "" {
		t.Fatal("degraded session reports no persistError")
	}
	// Later edits still work, just unpersisted.
	applyEdits(t, ts, "s1", []EditRequest{{Op: "relax", Rule: 1, Pred: 0, Threshold: 0.5}})
	mustVerify(t, ts, "s1", "after degradation")
}

// TestEnableDurabilityUnwritable surfaces an unusable datadir as an
// error the caller can log and degrade on.
func TestEnableDurabilityUnwritable(t *testing.T) {
	file := filepath.Join(t.TempDir(), "plainfile")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	srv := New(core.Config{Workers: 1})
	if err := srv.EnableDurability(Durability{Dir: file, Policy: wal.SyncPolicy{Mode: wal.SyncAlways}}); err == nil {
		t.Fatal("EnableDurability accepted a plain file as datadir")
	}
	if srv.Durable() {
		t.Fatal("server claims durable after failed enable")
	}
}

// TestRecoverSkipsCorruptDirectory: a mangled session directory is
// logged and skipped, never blocking the healthy ones.
func TestRecoverSkipsCorruptDirectory(t *testing.T) {
	dir := t.TempDir()
	ts, _ := newDurableServer(t, dir, nil)
	createSession(t, ts, "good")
	ts.Close()
	bad := filepath.Join(dir, "bad")
	if err := os.MkdirAll(bad, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(bad, wal.SnapshotFile), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	ts2, srv2 := newDurableServer(t, dir, nil)
	if srv2.SessionCount() != 1 {
		t.Fatalf("recovered %d sessions, want 1", srv2.SessionCount())
	}
	mustVerify(t, ts2, "good", "after partial recovery")
	// The corrupt directory stays on disk for inspection.
	if _, err := os.Stat(filepath.Join(bad, wal.SnapshotFile)); err != nil {
		t.Fatalf("corrupt directory was touched: %v", err)
	}
}

// TestConcurrentReadersDuringJournaledEdits drives reads against a
// session while edits journal — the -race CI run watches this.
func TestConcurrentReadersDuringJournaledEdits(t *testing.T) {
	ts, _ := newDurableServer(t, t.TempDir(), nil)
	createSession(t, ts, "s1")
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				var st StatsResponse
				doJSON(t, "GET", ts.URL+"/v1/sessions/s1/stats", nil, &st)
				var page MatchPage
				doJSON(t, "GET", ts.URL+"/v1/sessions/s1/matches?limit=5", nil, &page)
			}
		}()
	}
	for round := 0; round < 5; round++ {
		applyEdits(t, ts, "s1", []EditRequest{
			{Op: "set_threshold", Rule: 1, Pred: 0, Threshold: 0.6},
			{Op: "set_threshold", Rule: 1, Pred: 0, Threshold: 0.8},
		})
	}
	close(stop)
	wg.Wait()
	mustVerify(t, ts, "s1", "after concurrent load")
	var st StatsResponse
	doJSON(t, "GET", ts.URL+"/v1/sessions/s1/stats", nil, &st)
	if !st.Durable || st.Seq != 10 {
		t.Fatalf("durable=%v seq=%d after concurrent edits", st.Durable, st.Seq)
	}
}
