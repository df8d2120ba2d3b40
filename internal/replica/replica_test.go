package replica

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"rulematch/internal/core"
	"rulematch/internal/server"
	"rulematch/internal/wal"
)

// The differential harness: a durable primary takes edits over HTTP
// while a follower replicates them; followers are crash-killed and
// restarted from nothing at arbitrary points; convergence means the
// follower's snapshot endpoint serves bytes identical to the
// primary's. Aggressive compaction on the primary (tiny CompactAt)
// forces the wal_rotated / re-bootstrap path constantly.

const (
	tableACSV = `id,cat,name,city
a0,c1,matthew richardson,seattle
a1,c1,john smith,madison
a2,c1,jane smith,madison
a3,c2,maria garcia,chicago
a4,c2,wei chen,milwaukee
a5,c2,sarah jones,portland
`
	tableBCSV = `id,cat,name,city
b0,c1,matt richardson,seattle
b1,c1,jon smith,madison
b2,c1,jane smyth,madison
b3,c2,mary garcia,chicago
b4,c2,wei chen,milwaukee
b5,c2,someone else,nowhere
`
	rulesDSL = `rule r1: jaro_winkler(name, name) >= 0.9 and jaccard(city, city) >= 0.5
rule r2: trigram(name, name) >= 0.8
`
)

func engineConfig() core.Config { return core.Config{Workers: 2} }

// newPrimary starts a durable primary with an aggressive compaction
// threshold so the journal rotates out from under slow followers.
func newPrimary(t *testing.T, cfg core.Config, compactAt int64) (*httptest.Server, *server.Server) {
	t.Helper()
	srv := server.New(cfg)
	if err := srv.EnableDurability(server.Durability{
		Dir:       t.TempDir(),
		Policy:    wal.SyncPolicy{Mode: wal.SyncNever},
		CompactAt: compactAt,
	}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, srv
}

// newFollower starts a replica node against the primary: an ephemeral
// read-only server sharing its store with a replication manager.
func newFollower(t *testing.T, cfg core.Config, primaryURL string) (*httptest.Server, *Manager) {
	t.Helper()
	srv := server.New(cfg)
	srv.SetPrimary(primaryURL)
	m := New(Config{
		PrimaryURL:   primaryURL,
		Store:        srv.Store(),
		Core:         cfg,
		SyncInterval: 20 * time.Millisecond,
		WalWait:      50,
		BackoffMax:   100 * time.Millisecond,
	})
	srv.SetReplicaSource(m)
	m.Start()
	t.Cleanup(m.Stop)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, m
}

func doJSON(t *testing.T, method, url string, body string, out any) int {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if b, ok := out.(*[]byte); ok {
			*b = data
		}
	}
	return resp.StatusCode
}

func createSession(t *testing.T, url, name string) {
	t.Helper()
	body := fmt.Sprintf(`{"name":%q,"tableA":%q,"tableB":%q,"rules":%q,"block":"cat"}`,
		name, tableACSV, tableBCSV, rulesDSL)
	if code := doJSON(t, "POST", url+"/v1/sessions", body, nil); code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}
}

// edit posts one journaled edit to the primary.
func edit(t *testing.T, url, name, body string) {
	t.Helper()
	if code := doJSON(t, "POST", url+"/v1/sessions/"+name+"/edits", body, nil); code != http.StatusOK {
		t.Fatalf("edit %s: status %d", body, code)
	}
}

// stormEdits returns an endless deterministic mix of edit kinds; i
// indexes into the cycle. Thresholds stay in (0,1) and rule 1 keeps
// its single predicate, so every edit in the cycle is always legal.
func stormEdit(i int) string {
	th := 0.30 + 0.01*float64(i%40)
	switch i % 3 {
	case 0:
		return fmt.Sprintf(`{"op":"set_threshold","rule":1,"pred":0,"threshold":%.2f}`, th)
	case 1:
		return fmt.Sprintf(`{"op":"set_threshold","rule":0,"pred":1,"threshold":%.2f}`, 0.20+0.01*float64(i%50))
	default:
		return fmt.Sprintf(`{"op":"set_threshold","rule":0,"pred":0,"threshold":%.3f}`, 0.850+0.002*float64(i%60))
	}
}

// snapshotBytes downloads a node's persist-format snapshot.
func snapshotBytes(t *testing.T, url, name string) []byte {
	t.Helper()
	var data []byte
	if code := doJSON(t, "GET", url+"/v1/sessions/"+name+"/snapshot", "", &data); code != http.StatusOK {
		t.Fatalf("snapshot: status %d", code)
	}
	return data
}

// waitConverged polls until the follower has applied the primary's
// sequence for the session.
func waitConverged(t *testing.T, m *Manager, name string, want uint64) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if got, ok := m.AppliedSeq(name); ok && got >= want {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	st := m.Status()
	t.Fatalf("follower never reached seq %d; status %+v", want, st)
}

// primarySeq reads the primary's journal sequence from /stats.
func primarySeq(t *testing.T, url, name string) uint64 {
	t.Helper()
	var data []byte
	if code := doJSON(t, "GET", url+"/v1/sessions/"+name+"/stats", "", &data); code != http.StatusOK {
		t.Fatalf("stats: status %d", code)
	}
	var st struct {
		Seq uint64 `json:"seq"`
	}
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatal(err)
	}
	return st.Seq
}

// TestFollowerServesDuringWriteStorm is the tentpole e2e: a follower
// keeps serving reads with monotonically non-decreasing applied
// sequence throughout a 50-edit write storm, then converges to a state
// byte-identical to the primary's.
func TestFollowerServesDuringWriteStorm(t *testing.T) {
	// batch names the engine every session runs.
	t.Run("batch", func(t *testing.T) {
		cfg := engineConfig()
		pts, _ := newPrimary(t, cfg, 0) // default compaction
		createSession(t, pts.URL, "storm")
		fts, m := newFollower(t, cfg, pts.URL)
		waitConverged(t, m, "storm", 0)

		var lastApplied uint64
		for i := 0; i < 50; i++ {
			edit(t, pts.URL, "storm", stormEdit(i))
			// The follower answers reads mid-storm, and its applied
			// sequence never moves backward.
			var data []byte
			if code := doJSON(t, "GET", fts.URL+"/v1/sessions/storm/stats", "", &data); code != http.StatusOK {
				t.Fatalf("replica stats mid-storm: status %d", code)
			}
			var st struct {
				Replication struct {
					Role       string `json:"role"`
					AppliedSeq uint64 `json:"appliedSeq"`
				} `json:"replication"`
			}
			if err := json.Unmarshal(data, &st); err != nil {
				t.Fatal(err)
			}
			if st.Replication.Role != "replica" {
				t.Fatalf("replica stats report role %q", st.Replication.Role)
			}
			if st.Replication.AppliedSeq < lastApplied {
				t.Fatalf("applied seq moved backward: %d -> %d", lastApplied, st.Replication.AppliedSeq)
			}
			lastApplied = st.Replication.AppliedSeq
		}
		want := primarySeq(t, pts.URL, "storm")
		if want != 50 {
			t.Fatalf("primary seq %d after 50 edits", want)
		}
		waitConverged(t, m, "storm", want)
		prim := snapshotBytes(t, pts.URL, "storm")
		repl := snapshotBytes(t, fts.URL, "storm")
		if !bytes.Equal(prim, repl) {
			t.Fatalf("converged follower snapshot differs from primary (%d vs %d bytes)", len(prim), len(repl))
		}

		// Writes at the follower are redirected, not applied.
		if code := doJSON(t, "POST", fts.URL+"/v1/sessions/storm/edits", stormEdit(0), nil); code != http.StatusMisdirectedRequest {
			t.Fatalf("edit at follower: status %d, want 421", code)
		}
	})
}

// TestCrashKillRestartDifferential crash-kills the follower (manager
// stopped, store discarded — everything a real process death loses) at
// random points mid-stream, restarts it from nothing, and demands
// byte-identical convergence every time. The primary compacts almost
// every edit (CompactAt=1), so restarts constantly land on rotated
// journals and exercise the snapshot re-bootstrap path.
func TestCrashKillRestartDifferential(t *testing.T) {
	// batch names the engine every session runs.
	t.Run("batch", func(t *testing.T) {
		cfg := engineConfig()
		pts, _ := newPrimary(t, cfg, 1) // rotate on every release
		createSession(t, pts.URL, "dk")

		seq := 0
		// kill points: after 3, 7, 12 more edits (deterministic
		// "random" schedule; the edits themselves vary by index).
		for round, burst := range []int{3, 7, 12} {
			fts, m := newFollower(t, cfg, pts.URL)
			// Let the follower get partway in before the storm.
			waitConverged(t, m, "dk", uint64(seq))
			for i := 0; i < burst; i++ {
				edit(t, pts.URL, "dk", stormEdit(seq))
				seq++
			}
			waitConverged(t, m, "dk", uint64(seq))
			prim := snapshotBytes(t, pts.URL, "dk")
			repl := snapshotBytes(t, fts.URL, "dk")
			if !bytes.Equal(prim, repl) {
				t.Fatalf("round %d: follower snapshot differs from primary after crash-restart", round)
			}
			// Crash: stop the manager and drop the server; the next
			// round's follower starts from an empty store.
			m.Stop()
			fts.Close()
		}
	})
}

// TestWalRotatedRebootstrap is the regression for the error-loop
// hazard: a follower whose cursor predates the primary's snapshot gets
// a clean 410 + re-bootstrap, not an endless error retry. The follower
// is paused (not killed) while the primary compacts past it, so its
// live cursor is genuinely stale when it resumes.
func TestWalRotatedRebootstrap(t *testing.T) {
	cfg := engineConfig()
	pts, _ := newPrimary(t, cfg, 1)
	createSession(t, pts.URL, "rot")

	// Advance and compact the primary so early cursors are rotated away.
	for i := 0; i < 10; i++ {
		edit(t, pts.URL, "rot", stormEdit(i))
	}

	// A direct probe of the WAL endpoint at a stale cursor answers 410
	// with the wal_rotated code, not 500 and not an empty 200.
	resp, err := http.Get(pts.URL + "/v1/sessions/rot/wal?from=1")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusGone || !strings.Contains(string(body), "wal_rotated") {
		t.Fatalf("stale cursor: status %d body %s", resp.StatusCode, body)
	}

	// A live follower whose cursor falls behind a rotation must
	// re-bootstrap and keep going, not spin on errors. Converge it, then
	// age its cursor to a pre-rotation sequence (what a long network
	// partition would leave behind) and watch it recover.
	fts, m := newFollower(t, cfg, pts.URL)
	want := primarySeq(t, pts.URL, "rot")
	waitConverged(t, m, "rot", want)

	m.mu.Lock()
	f := m.followers["rot"]
	m.mu.Unlock()
	f.mu.Lock()
	f.applied = 1 // the journal's snapshot floor is far past this
	f.mu.Unlock()
	edit(t, pts.URL, "rot", stormEdit(10))
	want = primarySeq(t, pts.URL, "rot")
	waitConverged(t, m, "rot", want)

	prim := snapshotBytes(t, pts.URL, "rot")
	repl := snapshotBytes(t, fts.URL, "rot")
	if !bytes.Equal(prim, repl) {
		t.Fatal("re-bootstrapped follower differs from primary")
	}
	// And it is healthy: the rotation was counted as a clean
	// re-bootstrap and left no sticky error.
	for _, st := range m.Status() {
		if st.Name == "rot" {
			if st.Rebootstraps == 0 {
				t.Fatal("stale cursor did not trigger a re-bootstrap")
			}
			if st.Lag != 0 {
				t.Fatalf("follower reports lag %d after convergence", st.Lag)
			}
			if st.LastErr != "" {
				t.Fatalf("sticky error after recovery: %s", st.LastErr)
			}
		}
	}
}

// TestCorruptJournalRebootstraps proves a follower is never reported
// caught up over a hole in the primary's journal: with one payload byte
// of record 3 flipped on disk, a cursor at 2 gets 410 wal_rotated, and
// the follower re-bootstraps from the primary's in-memory state
// instead of waiting at seq 2 for records the journal cannot ship.
func TestCorruptJournalRebootstraps(t *testing.T) {
	cfg := engineConfig()
	dir := t.TempDir()
	srv := server.New(cfg)
	if err := srv.EnableDurability(server.Durability{Dir: dir, Policy: wal.SyncPolicy{Mode: wal.SyncNever}}); err != nil {
		t.Fatal(err)
	}
	pts := httptest.NewServer(srv.Handler())
	t.Cleanup(pts.Close)
	createSession(t, pts.URL, "bad")
	fts, m := newFollower(t, cfg, pts.URL)
	for i := 0; i < 6; i++ {
		edit(t, pts.URL, "bad", stormEdit(i))
	}
	waitConverged(t, m, "bad", 6)

	path := filepath.Join(dir, "bad", wal.JournalFile)
	lg, err := wal.ReadLog(path)
	if err != nil || len(lg.Records) != 6 {
		t.Fatalf("primary journal: %d records, err %v", len(lg.Records), err)
	}
	off := len(wal.Magic) + 8 + 2
	for _, rec := range lg.Records[:2] {
		frame, err := wal.EncodeFrame(rec)
		if err != nil {
			t.Fatal(err)
		}
		off += len(frame)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[off] ^= 0x20
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	m.mu.Lock()
	f := m.followers["bad"]
	m.mu.Unlock()
	f.mu.Lock()
	f.applied = 2 // a follower that still needs records 3..6
	f.mu.Unlock()
	waitConverged(t, m, "bad", 6)
	if !bytes.Equal(snapshotBytes(t, pts.URL, "bad"), snapshotBytes(t, fts.URL, "bad")) {
		t.Fatal("re-bootstrapped follower differs from primary")
	}
	for _, st := range m.Status() {
		if st.Name == "bad" && (st.Rebootstraps == 0 || st.Lag != 0) {
			t.Fatalf("status %+v, want a counted re-bootstrap and no lag", st)
		}
	}
}

// TestSessionLifecycleSync proves followers appear for new primary
// sessions and disappear (with their local copies) for deleted ones.
func TestSessionLifecycleSync(t *testing.T) {
	cfg := engineConfig()
	pts, _ := newPrimary(t, cfg, 0)
	fts, m := newFollower(t, cfg, pts.URL)

	createSession(t, pts.URL, "alpha")
	waitConverged(t, m, "alpha", 0)
	if code := doJSON(t, "GET", fts.URL+"/v1/sessions/alpha", "", nil); code != http.StatusOK {
		t.Fatalf("replicated session not served: status %d", code)
	}

	if code := doJSON(t, "DELETE", pts.URL+"/v1/sessions/alpha", "", nil); code != http.StatusNoContent {
		t.Fatalf("delete on primary: status %d", code)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if code := doJSON(t, "GET", fts.URL+"/v1/sessions/alpha", "", nil); code == http.StatusNotFound {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("deleted session still served by the follower")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRuleListingAgreesAfterThresholdEdit: after set_threshold 0.9 →
// 0.95, the primary's rule listing, a follower bootstrapped afterwards
// and the primary's session after an evict and reload serve
// byte-identical bodies, each predicate key rendering the moved
// threshold.
func TestRuleListingAgreesAfterThresholdEdit(t *testing.T) {
	cfg := engineConfig()
	pts, psrv := newPrimary(t, cfg, 0)
	createSession(t, pts.URL, "k")
	edit(t, pts.URL, "k", `{"op":"set_threshold","rule":0,"pred":0,"threshold":0.95}`)
	listing := func(url string) string {
		t.Helper()
		var data []byte
		if code := doJSON(t, "GET", url+"/v1/sessions/k/rules", "", &data); code != http.StatusOK {
			t.Fatalf("rules at %s: status %d", url, code)
		}
		return string(data)
	}
	primary := listing(pts.URL)
	if !strings.Contains(primary, `"key":"jaro_winkler(name,name) >= 0.95"`) {
		t.Fatalf("primary listing does not render the moved threshold: %s", primary)
	}
	fts, m := newFollower(t, cfg, pts.URL)
	waitConverged(t, m, "k", primarySeq(t, pts.URL, "k"))
	if got := listing(fts.URL); got != primary {
		t.Fatalf("follower listing differs from the primary's:\n got %s\nwant %s", got, primary)
	}
	if !psrv.Store().Evict("k") {
		t.Fatal("primary refused to evict the session")
	}
	if got := listing(pts.URL); got != primary {
		t.Fatalf("listing after evict and reload differs:\n got %s\nwant %s", got, primary)
	}
}
