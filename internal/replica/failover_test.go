package replica

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"rulematch/internal/chaos"
	"rulematch/internal/core"
	"rulematch/internal/server"
	"rulematch/internal/wal"
)

// The failover harness: a durable primary is crash-killed at a
// seeded-random point of a write storm while its follower replicates
// through a fault-injecting transport; the follower is promoted under
// a fenced epoch; clients replay their acked-but-unreplicated suffix;
// and the result must be byte-identical to an oracle primary that
// never crashed and applied the same logical edits. Then the deposed
// primary is revived from its own datadir and must be fenced: no
// client that saw the new epoch can write to it, and no follower that
// saw the new epoch will apply its stale journal.

// newPrimaryAt is newPrimary with a caller-owned datadir, so the test
// can revive the node from disk after killing it.
func newPrimaryAt(t *testing.T, cfg core.Config, dir string) (*httptest.Server, *server.Server) {
	t.Helper()
	srv := server.New(cfg)
	if err := srv.EnableDurability(server.Durability{
		Dir:    dir,
		Policy: wal.SyncPolicy{Mode: wal.SyncNever},
	}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close) // idempotent; the test kills it earlier
	return ts, srv
}

// newPromotable starts a follower wired the way emserve wires one:
// replica source, promote token, and a promoter that re-homes sessions
// into dataDir. client lets the test interpose a chaos transport.
func newPromotable(t *testing.T, cfg core.Config, primaryURL, dataDir, token string, client *http.Client) (*httptest.Server, *Manager) {
	t.Helper()
	srv := server.New(cfg)
	srv.SetPrimary(primaryURL)
	m := New(Config{
		PrimaryURL:   primaryURL,
		Store:        srv.Store(),
		Core:         cfg,
		Client:       client,
		SyncInterval: 20 * time.Millisecond,
		WalWait:      50,
		BackoffMax:   100 * time.Millisecond,
		Seed:         7,
	})
	srv.SetReplicaSource(m)
	srv.SetPromoteToken(token)
	dur := server.Durability{Dir: dataDir, Policy: wal.SyncPolicy{Mode: wal.SyncNever}}
	srv.SetPromoter(func() (server.PromoteOutcome, error) {
		res, err := m.Promote(&dur)
		if err != nil {
			return server.PromoteOutcome{}, err
		}
		out := server.PromoteOutcome{Epoch: res.Epoch}
		for _, ps := range res.Sessions {
			out.Sessions = append(out.Sessions, server.PromotedSessionInfo{Name: ps.Name, AppliedSeq: ps.AppliedSeq})
		}
		return out, nil
	})
	m.Start()
	t.Cleanup(m.Stop)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, m
}

// editSeq posts one edit and returns the acknowledged Em-Seq, the
// status and the body. epoch > 0 threads an Em-Epoch header, the way a
// client that has seen a promotion would.
func editSeq(t *testing.T, url, name, body string, epoch uint64) (uint64, int, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+"/v1/sessions/"+name+"/edits", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if epoch > 0 {
		req.Header.Set("Em-Epoch", strconv.FormatUint(epoch, 10))
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
	return headerSeq(resp.Header.Get("Em-Seq")), resp.StatusCode, data
}

// postPromote hits POST /v1/promote with an optional bearer token.
func postPromote(t *testing.T, url, token string) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+"/v1/promote", nil)
	if err != nil {
		t.Fatal(err)
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, data
}

// TestFailoverPromoteDifferential is the tentpole chaos harness:
//
//   - storm the primary while the follower's link drops, duplicates
//     and delays requests (seeded chaos transport);
//   - sever the link, ack five more writes the follower never sees,
//     then kill -9 the primary (listener torn down, journals never
//     cleanly closed);
//   - promote the follower over HTTP (bad token refused), landing it
//     durably in its own datadir under a bumped epoch;
//   - replay the acked suffix the promotion reported lost, exactly as
//     a correct client tracking Em-Seq would, plus fresh post-failover
//     writes with the read-your-writes barrier threaded through;
//   - demand the final state is byte-identical to an oracle primary
//     that never crashed, on a second follower too (no acked write
//     lost, no divergence);
//   - revive the deposed primary from its datadir and prove it is
//     fenced for epoch-aware clients and stale for epoch-aware
//     followers.
func TestFailoverPromoteDifferential(t *testing.T) {
	// batch names the engine every session runs.
	t.Run("batch", func(t *testing.T) {
		cfg := engineConfig()
		rng := rand.New(rand.NewSource(0xFA12))

		oldDir := filepath.Join(t.TempDir(), "old-primary")
		pts, _ := newPrimaryAt(t, cfg, oldDir)
		createSession(t, pts.URL, "fo")

		ct := chaos.New(nil, 42)
		client := &http.Client{Transport: ct, Timeout: 30 * time.Second}
		promDir := filepath.Join(t.TempDir(), "promoted")
		fts, m := newPromotable(t, cfg, pts.URL, promDir, "sesame", client)
		waitConverged(t, m, "fo", 0)

		// Storm through a flaky (but connected) link first.
		ct.SetDrop(0.15)
		ct.SetDup(0.10)
		ct.SetDelay(2 * time.Millisecond)

		killAt := 25 + rng.Intn(15) // acked writes before the crash
		severAt := killAt - 5       // last five never replicate
		var acked []string          // bodies in ack order; acked[i] has seq i+1
		for len(acked) < killAt {
			body := stormEdit(len(acked))
			seq, code, data := editSeq(t, pts.URL, "fo", body, 0)
			if code != http.StatusOK {
				t.Fatalf("edit %d: status %d: %s", len(acked), code, data)
			}
			if seq != uint64(len(acked)+1) {
				t.Fatalf("edit %d acked Em-Seq %d", len(acked), seq)
			}
			acked = append(acked, body)
			if len(acked) == severAt {
				// Let the follower catch up, then partition it so the
				// remaining acked writes genuinely need client replay.
				waitConverged(t, m, "fo", uint64(severAt))
				ct.SetDrop(0)
				ct.SetDup(0)
				ct.SetDelay(0)
				ct.SetSevered(true)
				// Outlive any in-flight long poll so the follower's
				// cursor is frozen exactly at severAt.
				time.Sleep(250 * time.Millisecond)
			}
		}

		// Kill -9: tear the listener down mid-flight; journals are
		// never synced or closed.
		pts.CloseClientConnections()
		pts.Close()

		// Promotion is authenticated.
		if code, _ := postPromote(t, fts.URL, ""); code != http.StatusUnauthorized {
			t.Fatalf("promote without token: status %d, want 401", code)
		}
		if code, body := postPromote(t, fts.URL, "wrong"); code != http.StatusUnauthorized || !strings.Contains(string(body), "unauthorized") {
			t.Fatalf("promote with bad token: status %d body %s", code, body)
		}
		code, body := postPromote(t, fts.URL, "sesame")
		if code != http.StatusOK {
			t.Fatalf("promote: status %d: %s", code, body)
		}
		var prom struct {
			Epoch    uint64 `json:"epoch"`
			Sessions []struct {
				Name       string `json:"name"`
				AppliedSeq uint64 `json:"appliedSeq"`
			} `json:"sessions"`
		}
		if err := json.Unmarshal(body, &prom); err != nil {
			t.Fatal(err)
		}
		if prom.Epoch == 0 {
			t.Fatalf("promotion did not bump the epoch: %s", body)
		}
		if len(prom.Sessions) != 1 || prom.Sessions[0].Name != "fo" {
			t.Fatalf("promotion sessions: %s", body)
		}
		appliedAt := prom.Sessions[0].AppliedSeq
		if appliedAt != uint64(severAt) {
			t.Fatalf("promoted at seq %d, want the severed cursor %d", appliedAt, severAt)
		}
		// Promoting twice is a conflict, not a second epoch bump.
		if code, _ := postPromote(t, fts.URL, "sesame"); code != http.StatusConflict {
			t.Fatalf("second promote: status %d, want 409", code)
		}
		ct.SetSevered(false)

		// Client replay: every acked write past the promotion point,
		// with the new epoch threaded, resumes at its original seq.
		for i := appliedAt; i < uint64(killAt); i++ {
			seq, code, data := editSeq(t, fts.URL, "fo", acked[i], prom.Epoch)
			if code != http.StatusOK {
				t.Fatalf("replay seq %d: status %d: %s", i+1, code, data)
			}
			if seq != i+1 {
				t.Fatalf("replay resequenced: acked %d, new primary says %d", i+1, seq)
			}
		}
		// Fresh traffic lands on the new primary; the last write's
		// Em-Seq drives the read-your-writes barrier below.
		var fresh []string
		var lastSeq uint64
		for i := 0; i < 10; i++ {
			body := stormEdit(1000 + i)
			seq, code, data := editSeq(t, fts.URL, "fo", body, 0)
			if code != http.StatusOK {
				t.Fatalf("post-failover edit %d: status %d: %s", i, code, data)
			}
			fresh = append(fresh, body)
			lastSeq = seq
		}
		if lastSeq != uint64(killAt+10) {
			t.Fatalf("new primary seq %d after replay+fresh, want %d — an acked write was lost", lastSeq, killAt+10)
		}

		// Oracle: a primary that never crashed, fed the same logical
		// sequence. Byte-identity proves no acked write was lost and
		// no state diverged.
		ots, _ := newPrimary(t, cfg, 0)
		createSession(t, ots.URL, "fo")
		for _, b := range acked {
			edit(t, ots.URL, "fo", b)
		}
		for _, b := range fresh {
			edit(t, ots.URL, "fo", b)
		}
		oracle := snapshotBytes(t, ots.URL, "fo")
		if got := snapshotBytes(t, fts.URL, "fo"); !bytes.Equal(oracle, got) {
			t.Fatalf("promoted primary differs from uncrashed oracle (%d vs %d bytes)", len(got), len(oracle))
		}

		// A second follower bootstraps from the promoted primary under
		// the new epoch, converges byte-identically, and can serve a
		// read-your-writes barrier for the storm's last ack.
		bts, mb := newFollower(t, cfg, fts.URL)
		waitConverged(t, mb, "fo", lastSeq)
		if got := snapshotBytes(t, bts.URL, "fo"); !bytes.Equal(oracle, got) {
			t.Fatal("second follower differs from oracle after failover")
		}
		for _, st := range mb.Status() {
			if st.Name == "fo" && st.Epoch != prom.Epoch {
				t.Fatalf("second follower at epoch %d, want %d", st.Epoch, prom.Epoch)
			}
		}
		barrier := fmt.Sprintf("/v1/sessions/fo/stats?consistent=%d", lastSeq)
		if code := doJSON(t, "GET", bts.URL+barrier, "", nil); code != http.StatusOK {
			t.Fatalf("read barrier at applied seq: status %d", code)
		}
		// A barrier the replica cannot reach times out with 503 and a
		// Retry-After hint.
		resp, err := http.Get(bts.URL + fmt.Sprintf("/v1/sessions/fo/stats?consistent=%d&wait=1", lastSeq+1000))
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(data), "unavailable") {
			t.Fatalf("unreachable barrier: status %d body %s", resp.StatusCode, data)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Fatal("503 barrier timeout is missing Retry-After")
		}

		// Revive the deposed primary from its own datadir. It recovers
		// every write it acked — nothing was lost there either — but
		// the moment an epoch-aware client touches it, it fences.
		rsrv := server.New(cfg)
		if err := rsrv.EnableDurability(server.Durability{Dir: oldDir, Policy: wal.SyncPolicy{Mode: wal.SyncNever}}); err != nil {
			t.Fatal(err)
		}
		if n, err := rsrv.RecoverSessions(); err != nil || n != 1 {
			t.Fatalf("revive old primary: %d sessions, err %v", n, err)
		}
		rts := httptest.NewServer(rsrv.Handler())
		t.Cleanup(rts.Close)
		if got := primarySeq(t, rts.URL, "fo"); got != uint64(killAt) {
			t.Fatalf("revived primary recovered seq %d, want %d", got, killAt)
		}
		_, code, data = editSeq(t, rts.URL, "fo", stormEdit(0), prom.Epoch)
		if code != http.StatusConflict || !strings.Contains(string(data), "stale_epoch") {
			t.Fatalf("write with new epoch at deposed primary: status %d body %s", code, data)
		}
		// The fence is sticky: even header-less writes stay refused.
		_, code, data = editSeq(t, rts.URL, "fo", stormEdit(0), 0)
		if code != http.StatusConflict || !strings.Contains(string(data), "stale_epoch") {
			t.Fatalf("write after fencing: status %d body %s", code, data)
		}

		// A follower that has seen the new epoch refuses the deposed
		// primary's history outright: bootstrap and WAL polls both
		// surface errStale, and nothing is applied.
		m2 := New(Config{PrimaryURL: rts.URL, Store: server.New(cfg).Store(), Core: cfg, WalWait: 50})
		f := &follower{name: "fo", m: m2, rng: rand.New(rand.NewSource(1))}
		f.epoch = prom.Epoch
		if err := f.bootstrap(context.Background()); !errors.Is(err, errStale) {
			t.Fatalf("bootstrap from deposed primary: %v, want errStale", err)
		}
		if err := f.pollOnce(context.Background()); !errors.Is(err, errStale) {
			t.Fatalf("wal poll at deposed primary: %v, want errStale", err)
		}
		if f.applied != 0 {
			t.Fatalf("stale records were applied: cursor %d", f.applied)
		}
	})
}
