package replica

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"rulematch/internal/core"
	"rulematch/internal/server"
	"rulematch/internal/sessionstore"
)

// TestEverySessionEntryRunsStoreConfig pins the single configuration
// path: however a session enters a store — HTTP create (cold, and from
// an uploaded snapshot), evict→reload, RecoverAll after a restart,
// replica bootstrap — it runs what that store's core.Config builds:
// its worker count, check-cache-first and the profile cache. The
// worker count and the profile cache differ from what persist.Load
// builds (one worker, no profile cache), so a path that drops its
// Reconfigure fails here. A create that carries the removed
// per-session "config" field the way an old client would send it is
// refused with 400 invalid_request, as is any field the request does
// not declare, so the override cannot be mistaken for applied.
func TestEverySessionEntryRunsStoreConfig(t *testing.T) {
	cfg := core.Config{Workers: 2}

	check := func(path string, st *sessionstore.Store, name string) {
		t.Helper()
		h, err := st.Acquire(name, sessionstore.ModeRead)
		if err != nil {
			t.Fatalf("%s: acquire %s: %v", path, name, err)
		}
		defer h.Release()
		m := h.Session().M
		if m.Workers != cfg.Workers || !m.CheckCacheFirst || !m.C.ProfileCacheEnabled() {
			t.Errorf("%s: session runs workers=%d cacheFirst=%v profiles=%v, want workers=%d, both on",
				path, m.Workers, m.CheckCacheFirst, m.C.ProfileCacheEnabled(), cfg.Workers)
		}
	}

	dir := t.TempDir()
	ts, srv := newPrimaryAt(t, cfg, dir)
	cold := fmt.Sprintf(`{"name":"cold","tableA":%q,"tableB":%q,"rules":%q,"block":"cat"`, tableACSV, tableBCSV, rulesDSL)
	var refusal []byte
	legacy := cold + `,"config":{"parallel":8,"batch":true,"profiles":false}}`
	if code := doJSON(t, "POST", ts.URL+"/v1/sessions", legacy, &refusal); code != http.StatusBadRequest ||
		!strings.Contains(string(refusal), `"code":"invalid_request"`) {
		t.Fatalf("create with a legacy config field: status %d, body %s; want 400 invalid_request", code, refusal)
	}
	if code := doJSON(t, "POST", ts.URL+"/v1/sessions", cold+"}", nil); code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
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
