package server

import (
	"context"
	"expvar"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"testing"

	"rulematch/internal/core"
	"rulematch/internal/faultio"
)

// getMatches fetches the full first match page for a session.
func getMatches(t *testing.T, ts *httptest.Server, name string) MatchPage {
	t.Helper()
	var page MatchPage
	if code := doJSON(t, "GET", ts.URL+"/v1/sessions/"+name+"/matches", nil, &page); code != http.StatusOK {
		t.Fatalf("matches: status %d", code)
	}
	return page
}

// listSessions fetches GET /v1/sessions keyed by name.
func listSessions(t *testing.T, ts *httptest.Server) map[string]SessionInfo {
	t.Helper()
	var list SessionList
	if code := doJSON(t, "GET", ts.URL+"/v1/sessions", nil, &list); code != http.StatusOK {
		t.Fatalf("list: status %d", code)
	}
	out := make(map[string]SessionInfo, len(list.Sessions))
	for _, si := range list.Sessions {
		out[si.Name] = si
	}
	return out
}

// Evicting a session must be invisible to the API: listing shows the
// evicted state without reloading anything, and the next touch of the
// session's name reloads it with its match result intact.
func TestHTTPEvictReloadTransparent(t *testing.T) {
	ts, srv := newDurableServer(t, t.TempDir(), faultio.OS)
	createSession(t, ts, "hot")
	createSession(t, ts, "cold")
	before := getMatches(t, ts, "cold")
	if before.Total == 0 {
		t.Fatal("test setup: expected matches")
	}

	if !srv.Store().Evict("cold") {
		t.Fatal("evict refused")
	}
	// The list reports lifecycle state from cached metadata; asking
	// twice must not resurrect the session.
	for i := 0; i < 2; i++ {
		infos := listSessions(t, ts)
		if got := infos["cold"].State; got != "evicted" {
			t.Fatalf("list %d: cold state %q, want evicted", i, got)
		}
		if got := infos["cold"].ResidentBytes; got != 0 {
			t.Fatalf("list %d: evicted session reports %d resident bytes", i, got)
		}
		if got := infos["hot"].State; got != "resident" {
			t.Fatalf("list %d: hot state %q, want resident", i, got)
		}
		// The cached counts survive eviction.
		if infos["cold"].Matches != before.Total {
			t.Fatalf("list %d: cached match count %d, want %d", i, infos["cold"].Matches, before.Total)
		}
	}

	// Any endpoint under the name is a touch: the reload is transparent.
	after := getMatches(t, ts, "cold")
	if !reflect.DeepEqual(after, before) {
		t.Errorf("match page changed across evict/reload:\n got %+v\nwant %+v", after, before)
	}
	mustVerify(t, ts, "cold", "after reload")

	var st StatsResponse
	if code := doJSON(t, "GET", ts.URL+"/v1/sessions/cold/stats", nil, &st); code != http.StatusOK {
		t.Fatalf("stats: status %d", code)
	}
	if st.State != "resident" || st.Evictions != 1 || st.Reloads != 1 {
		t.Errorf("stats lifecycle = (%s, %d evictions, %d reloads), want (resident, 1, 1)",
			st.State, st.Evictions, st.Reloads)
	}
	if st.ResidentBytes == 0 {
		t.Error("stats: resident session reports 0 resident bytes")
	}
	if !st.Durable {
		t.Error("stats: session lost durability across evict/reload")
	}

	// The reloaded session keeps accepting edits.
	applyEdits(t, ts, "cold", []EditRequest{{Op: "set_threshold", Rule: 1, Pred: 0, Threshold: 0.6}})
	mustVerify(t, ts, "cold", "after post-reload edit")
}

// A budget below the working set evicts the LRU session as new ones
// are admitted — entirely behind the API.
func TestHTTPBudgetEvictsColdest(t *testing.T) {
	ts, srv := newDurableServer(t, t.TempDir(), faultio.OS)
	createSession(t, ts, "s1")
	per := listSessions(t, ts)["s1"].ResidentBytes
	if per == 0 {
		t.Fatal("test setup: zero resident bytes")
	}
	srv.SetLimits(0, per+per/2, 0)
	createSession(t, ts, "s2")
	infos := listSessions(t, ts)
	if infos["s1"].State != "evicted" || infos["s2"].State != "resident" {
		t.Fatalf("after admitting s2 under budget: s1=%s s2=%s, want evicted/resident",
			infos["s1"].State, infos["s2"].State)
	}
	// Touching s1 swaps the two.
	mustVerify(t, ts, "s1", "after reload under budget")
	infos = listSessions(t, ts)
	if infos["s1"].State != "resident" || infos["s2"].State != "evicted" {
		t.Fatalf("after touching s1: s1=%s s2=%s, want resident/evicted",
			infos["s1"].State, infos["s2"].State)
	}
}

// Admission and edit quotas surface as 429s; read traffic is never
// throttled.
func TestHTTPQuotas(t *testing.T) {
	ts, srv := newTestServer(t)
	srv.SetLimits(1, 0, 2)
	createSession(t, ts, "only")

	var errResp ErrorResponse
	if code := doJSON(t, "POST", ts.URL+"/v1/sessions", CreateSessionRequest{
		Name: "overflow", TableA: tableACSV, TableB: tableBCSV,
		Rules: rulesDSL, Block: "cat",
	}, &errResp); code != http.StatusTooManyRequests {
		t.Fatalf("create over MaxSessions: status %d, want 429", code)
	}

	edit := EditRequest{Op: "set_threshold", Rule: 1, Pred: 0, Threshold: 0.7}
	for i := 0; i < 2; i++ {
		if code := doJSON(t, "POST", ts.URL+"/v1/sessions/only/edits", edit, nil); code != http.StatusOK {
			t.Fatalf("edit %d: status %d", i, code)
		}
	}
	if code := doJSON(t, "POST", ts.URL+"/v1/sessions/only/edits", edit, &errResp); code != http.StatusTooManyRequests {
		t.Fatalf("edit over MaxEdits: status %d, want 429", code)
	}
	var st StatsResponse
	if code := doJSON(t, "GET", ts.URL+"/v1/sessions/only/stats", nil, &st); code != http.StatusOK {
		t.Fatalf("stats after quota: status %d, want 200", code)
	}
	if st.Edits != 2 || st.MaxEdits != 2 {
		t.Errorf("stats edits = %d/%d, want 2/2", st.Edits, st.MaxEdits)
	}
	mustVerify(t, ts, "only", "after edit quota hit")

	// Freeing the slot lifts the admission quota.
	if code := doJSON(t, "DELETE", ts.URL+"/v1/sessions/only", nil, nil); code != http.StatusNoContent {
		t.Fatalf("delete: status %d", code)
	}
	createSession(t, ts, "replacement")
}

// Without a datadir there is nothing to evict to: the budget is a hard
// admission cap.
func TestHTTPEphemeralBudgetRejects(t *testing.T) {
	ts, srv := newTestServer(t)
	createSession(t, ts, "first")
	srv.SetLimits(0, 1, 0)
	var errResp ErrorResponse
	if code := doJSON(t, "POST", ts.URL+"/v1/sessions", CreateSessionRequest{
		Name: "second", TableA: tableACSV, TableB: tableBCSV,
		Rules: rulesDSL, Block: "cat",
	}, &errResp); code != http.StatusTooManyRequests {
		t.Fatalf("ephemeral create over budget: status %d, want 429", code)
	}
	// The resident session is pinned, not evicted.
	if got := listSessions(t, ts)["first"].State; got != "resident" {
		t.Fatalf("ephemeral session state %q, want resident", got)
	}
}

// The lifecycle gauges are published under their documented expvar
// names. Values are process-global, so only monotone facts are
// asserted.
func TestExpvarLifecycleGauges(t *testing.T) {
	ts, srv := newDurableServer(t, t.TempDir(), faultio.OS)
	createSession(t, ts, "g1")
	if !srv.Store().Evict("g1") {
		t.Fatal("evict refused")
	}
	for _, name := range []string{"sessions_resident", "sessions_evicted_total", "bytes_resident"} {
		if expvar.Get(name) == nil {
			t.Errorf("expvar gauge %q not published", name)
		}
	}
	if v, ok := expvar.Get("sessions_evicted_total").(*expvar.Int); !ok || v.Value() < 1 {
		t.Errorf("sessions_evicted_total = %v, want >= 1", expvar.Get("sessions_evicted_total"))
	}
}

// The full API works over a unix-domain socket.
func TestUnixSocketListener(t *testing.T) {
	sock := filepath.Join(t.TempDir(), "emserve.sock")
	ln, err := Listen("unix:" + sock)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(core.Config{Workers: 2})
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)
	t.Cleanup(func() { hs.Close() })

	client := &http.Client{Transport: &http.Transport{
		DialContext: func(ctx context.Context, _, _ string) (net.Conn, error) {
			var d net.Dialer
			return d.DialContext(ctx, "unix", sock)
		},
	}}
	resp, err := client.Get("http://emserve/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz over unix socket: status %d", resp.StatusCode)
	}

	// A second listener on the live socket must refuse rather than
	// steal it.
	if _, err := Listen("unix:" + sock); err == nil {
		t.Fatal("second Listen on a live socket succeeded")
	}
}
