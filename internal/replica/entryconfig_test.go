package replica

import (
	"encoding/json"
	"fmt"
	"net/http"
	"testing"

	"rulematch/internal/core"
	"rulematch/internal/server"
	"rulematch/internal/sessionstore"
)

// TestEverySessionEntryRunsStoreConfig pins the single configuration
// path: however a session enters a store — HTTP create (cold, and from
// an uploaded snapshot), evict→reload, RecoverAll after a restart,
// replica bootstrap — it runs that store's core.Config. Every knob is
// set away from what persist.Load builds (batch engine, serial,
// check-cache-first on, no profile cache), so a path that drops its
// Reconfigure fails here. The cold create also carries the removed
// per-session "config" field the way an old client would send it: it
// must still be accepted, and ignored.
func TestEverySessionEntryRunsStoreConfig(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.Engine = core.EngineScalar
	cfg.Workers = 2
	cfg.ProfileCache = true

	check := func(path string, st *sessionstore.Store, name string) {
		t.Helper()
		h, err := st.Acquire(name, sessionstore.ModeRead)
		if err != nil {
			t.Fatalf("%s: acquire %s: %v", path, name, err)
		}
		defer h.Release()
		m := h.Session().M
		if m.Engine != cfg.Engine || m.Workers != cfg.Workers ||
			m.CheckCacheFirst != cfg.CheckCacheFirst || m.C.ProfileCacheEnabled() != cfg.ProfileCache {
			t.Errorf("%s: session runs engine=%v workers=%d cacheFirst=%v profiles=%v, want %+v",
				path, m.Engine, m.Workers, m.CheckCacheFirst, m.C.ProfileCacheEnabled(), cfg)
		}
	}

	dir := t.TempDir()
	ts, srv := newPrimaryAt(t, cfg, dir)
	legacy := fmt.Sprintf(`{"name":"cold","tableA":%q,"tableB":%q,"rules":%q,"block":"cat",`+
		`"config":{"parallel":8,"batch":true,"profiles":false}}`, tableACSV, tableBCSV, rulesDSL)
	if code := doJSON(t, "POST", ts.URL+"/v1/sessions", legacy, nil); code != http.StatusCreated {
		t.Fatalf("create with a legacy config field: status %d", code)
	}
	check("HTTP create", srv.Store(), "cold")

	body, err := json.Marshal(server.CreateSessionRequest{
		Name: "warm", TableA: tableACSV, TableB: tableBCSV,
		Snapshot: snapshotBytes(t, ts.URL, "cold"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if code := doJSON(t, "POST", ts.URL+"/v1/sessions", string(body), nil); code != http.StatusCreated {
		t.Fatalf("create from snapshot: status %d", code)
	}
	check("HTTP create from snapshot", srv.Store(), "warm")

	if !srv.Store().Evict("cold") {
		t.Fatal("evict refused")
	}
	check("evict→reload", srv.Store(), "cold") // the acquire reloads

	ts.Close()
	srv.CloseSessions()
	ts2, srv2 := newPrimaryAt(t, cfg, dir)
	t.Cleanup(srv2.CloseSessions)
	if n, err := srv2.RecoverSessions(); err != nil || n != 2 {
		t.Fatalf("recovered %d sessions, err %v; want 2", n, err)
	}
	check("RecoverAll after restart", srv2.Store(), "cold")
	check("RecoverAll after restart", srv2.Store(), "warm")

	_, m := newFollower(t, cfg, ts2.URL)
	for _, name := range []string{"cold", "warm"} {
		waitConverged(t, m, name, primarySeq(t, ts2.URL, name))
		check("replica bootstrap", m.cfg.Store, name)
	}
}
