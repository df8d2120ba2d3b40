package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"rulematch/internal/core"
	"rulematch/internal/persist"
	"rulematch/internal/rule"
	"rulematch/internal/sim"
	"rulematch/internal/table"
)

// Test fixture: two small tables and a two-rule function with enough
// predicates for every edit kind.
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

func newTestServer(t *testing.T) (*httptest.Server, *Server) {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.CheckCacheFirst = true
	cfg.Workers = 2
	srv := New(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, srv
}

// doJSON posts (or gets) JSON and decodes the response into out.
func doJSON(t *testing.T, method, url string, body, out any) int {
	t.Helper()
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(data)
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
	if out != nil && len(data) > 0 {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("%s %s: decode %q: %v", method, url, data, err)
		}
	}
	return resp.StatusCode
}

func createSession(t *testing.T, ts *httptest.Server, name string) SessionInfo {
	t.Helper()
	var info SessionInfo
	code := doJSON(t, "POST", ts.URL+"/v1/sessions", CreateSessionRequest{
		Name: name, TableA: tableACSV, TableB: tableBCSV,
		Rules: rulesDSL, Block: "cat",
	}, &info)
	if code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}
	return info
}

// mustVerify asserts the server-side session still agrees with a
// from-scratch evaluation.
func mustVerify(t *testing.T, ts *httptest.Server, name, when string) {
	t.Helper()
	var v VerifyResponse
	if code := doJSON(t, "POST", ts.URL+"/v1/sessions/"+name+"/verify", nil, &v); code != http.StatusOK {
		t.Fatalf("verify %s: status %d", when, code)
	}
	if !v.OK {
		t.Fatalf("session invalid %s: %s", when, v.Error)
	}
}

// The full lifecycle: create, inspect, one edit of every kind —
// verifying session validity after each — then delete.
func TestLifecycleAllEditOps(t *testing.T) {
	ts, _ := newTestServer(t)
	info := createSession(t, ts, "s1")
	if info.Rules != 2 || info.Pairs == 0 {
		t.Fatalf("create info: %+v", info)
	}

	var rules RuleList
	if code := doJSON(t, "GET", ts.URL+"/v1/sessions/s1/rules", nil, &rules); code != http.StatusOK {
		t.Fatalf("rules: status %d", code)
	}
	if len(rules.Rules) != 2 || rules.Rules[0].Name != "r1" || len(rules.Rules[0].Preds) != 2 {
		t.Fatalf("rules listing: %+v", rules)
	}
	if rules.Rules[0].Preds[0].Sim == "" || rules.Rules[0].Preds[0].Threshold == 0 {
		t.Fatalf("pred detail missing: %+v", rules.Rules[0].Preds[0])
	}

	edits := []struct {
		name string
		req  EditRequest
	}{
		{"add_predicate (Alg 7)", EditRequest{Op: "add_predicate", RuleName: "r2", Predicate: "jaccard(name, name) >= 0.2"}},
		{"tighten (Alg 7)", EditRequest{Op: "tighten", Rule: 0, Pred: 0, Threshold: 0.93}},
		{"relax (Alg 8)", EditRequest{Op: "relax", Rule: 0, Pred: 0, Threshold: 0.88}},
		{"set_threshold dispatch", EditRequest{Op: "set_threshold", Rule: 1, Pred: 0, Threshold: 0.75}},
		{"remove_predicate (Alg 8)", EditRequest{Op: "remove_predicate", Rule: 1, Pred: 1}},
		{"add_rule (Alg 10)", EditRequest{Op: "add_rule", RuleSrc: "rule r3: exact_match(city, city) >= 1"}},
		{"remove_rule (Alg 9)", EditRequest{Op: "remove_rule", RuleName: "r1"}},
	}
	for _, e := range edits {
		var resp EditResponse
		if code := doJSON(t, "POST", ts.URL+"/v1/sessions/s1/edits", e.req, &resp); code != http.StatusOK {
			t.Fatalf("%s: status %d", e.name, code)
		}
		if resp.Report.Op == "" {
			t.Fatalf("%s: empty op report", e.name)
		}
		mustVerify(t, ts, "s1", "after "+e.name)
	}

	var list SessionList
	doJSON(t, "GET", ts.URL+"/v1/sessions", nil, &list)
	if len(list.Sessions) != 1 || list.Sessions[0].Rules != 2 {
		t.Fatalf("list after edits: %+v", list)
	}
	if code := doJSON(t, "DELETE", ts.URL+"/v1/sessions/s1", nil, nil); code != http.StatusNoContent {
		t.Fatalf("delete: status %d", code)
	}
	if code := doJSON(t, "GET", ts.URL+"/v1/sessions/s1", nil, nil); code != http.StatusNotFound {
		t.Fatalf("get after delete: status %d", code)
	}
}

// An HTTP edit sequence must land on exactly the match bitmap the
// batch engine computes from scratch for the same final rule set —
// the server is a debugger, not an approximation. The comparison is
// on the snapshot's bitmap, byte for byte.
func TestEditSequenceAgreesWithBatch(t *testing.T) {
	ts, _ := newTestServer(t)
	createSession(t, ts, "agree")
	for _, req := range []EditRequest{
		{Op: "tighten", Rule: 0, Pred: 0, Threshold: 0.95},
		{Op: "add_rule", RuleSrc: "rule r3: jaccard(name, name) >= 0.6"},
		{Op: "relax", Rule: 0, Pred: 0, Threshold: 0.91},
		{Op: "remove_predicate", Rule: 0, Pred: 1},
	} {
		if code := doJSON(t, "POST", ts.URL+"/v1/sessions/agree/edits", req, nil); code != http.StatusOK {
			t.Fatalf("edit %+v: status %d", req, code)
		}
	}

	// Pull the session state down in persist format (what emdebug's
	// restore reads) and rebuild the final function from it.
	resp, err := http.Get(ts.URL + "/v1/sessions/agree/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	a, err := table.ReadCSV(strings.NewReader(tableACSV), "A")
	if err != nil {
		t.Fatal(err)
	}
	b, err := table.ReadCSV(strings.NewReader(tableBCSV), "B")
	if err != nil {
		t.Fatal(err)
	}
	sess, err := persist.Load(resp.Body, sim.Standard(), a, b)
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.VerifyDeep(); err != nil {
		t.Fatalf("downloaded session invalid: %v", err)
	}

	// Batch-engine run of the final rule set from scratch.
	var srcs []string
	for _, cr := range sess.M.C.Rules {
		preds := make([]string, len(cr.Preds))
		for pj, p := range cr.Preds {
			preds[pj] = p.Key
		}
		srcs = append(srcs, "rule "+cr.Name+": "+strings.Join(preds, " and "))
	}
	f, err := rule.ParseFunction(strings.Join(srcs, "\n"))
	if err != nil {
		t.Fatal(err)
	}
	c, err := core.Compile(f, sim.Standard(), a, b)
	if err != nil {
		t.Fatal(err)
	}
	fresh := core.NewMatcher(c, sess.M.Pairs) // the zero Engine: batch
	if !sess.St.Matched.Equal(fresh.MatchBits()) {
		t.Fatal("HTTP edit sequence bitmap differs from the from-scratch batch run")
	}

	// And the matches page reports the same pairs.
	var page MatchPage
	doJSON(t, "GET", ts.URL+"/v1/sessions/agree/matches?limit=1000", nil, &page)
	if page.Total != sess.MatchCount() || len(page.Matches) != page.Total || page.NextCursor != "" {
		t.Fatalf("match page inconsistent: total %d, got %d, cursor %q",
			page.Total, len(page.Matches), page.NextCursor)
	}
	for _, m := range page.Matches {
		if !sess.St.Matched.Get(m.Pair) {
			t.Fatalf("page reports unmatched pair %d", m.Pair)
		}
		if m.Rule == "" {
			t.Fatalf("pair %d has no owning rule", m.Pair)
		}
	}
}

// A snapshot downloaded from one session creates an identical warm
// session; memo and bitmaps survive the round trip.
func TestSnapshotRoundTrip(t *testing.T) {
	ts, _ := newTestServer(t)
	createSession(t, ts, "orig")
	if code := doJSON(t, "POST", ts.URL+"/v1/sessions/orig/edits",
		EditRequest{Op: "tighten", Rule: 0, Pred: 0, Threshold: 0.95}, nil); code != http.StatusOK {
		t.Fatalf("edit: status %d", code)
	}
	resp, err := http.Get(ts.URL + "/v1/sessions/orig/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	snap, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}

	var info SessionInfo
	code := doJSON(t, "POST", ts.URL+"/v1/sessions", CreateSessionRequest{
		Name: "clone", TableA: tableACSV, TableB: tableBCSV, Snapshot: snap,
	}, &info)
	if code != http.StatusCreated {
		t.Fatalf("create from snapshot: status %d", code)
	}
	var so, sc StatsResponse
	doJSON(t, "GET", ts.URL+"/v1/sessions/orig/stats", nil, &so)
	doJSON(t, "GET", ts.URL+"/v1/sessions/clone/stats", nil, &sc)
	if so.Matches != sc.Matches || so.MemoEntries != sc.MemoEntries || so.Pairs != sc.Pairs {
		t.Fatalf("clone disagrees: orig %+v clone %+v", so, sc)
	}
	if sc.MemoEntries == 0 || sc.MemoBytes == 0 || sc.BitmapBytes == 0 {
		t.Fatalf("clone lost warm state: %+v", sc)
	}
	mustVerify(t, ts, "clone", "after snapshot restore")
}

// A sweep must not move live thresholds; a client timeout mid-sweep
// (cancelled request context) must leave the session valid.
func TestSweepAndCancellation(t *testing.T) {
	ts, srv := newTestServer(t)
	createSession(t, ts, "sw")

	var sweep SweepResponse
	if code := doJSON(t, "POST", ts.URL+"/v1/sessions/sw/sweep",
		SweepRequest{Rule: 0, Pred: 0, Steps: 9}, &sweep); code != http.StatusOK {
		t.Fatalf("sweep: status %d", code)
	}
	if len(sweep.Points) != 9 {
		t.Fatalf("sweep returned %d points", len(sweep.Points))
	}
	for i := 1; i < len(sweep.Points); i++ {
		if sweep.Points[i].Matches > sweep.Points[i-1].Matches {
			t.Fatalf("raising a lower-bound threshold grew the match set: %+v", sweep.Points)
		}
	}
	var before StatsResponse
	doJSON(t, "GET", ts.URL+"/v1/sessions/sw/stats", nil, &before)

	// Simulate the client going away mid-request: the handler sees a
	// cancelled context and the sweep aborts without touching state.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	body, _ := json.Marshal(SweepRequest{Rule: 0, Pred: 0, Steps: 9})
	req := httptest.NewRequest("POST", "/v1/sessions/sw/sweep", bytes.NewReader(body)).WithContext(ctx)
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("cancelled sweep: status %d, body %s", rec.Code, rec.Body.String())
	}
	var after StatsResponse
	doJSON(t, "GET", ts.URL+"/v1/sessions/sw/stats", nil, &after)
	if after.Stats != before.Stats || after.Matches != before.Matches {
		t.Fatal("cancelled sweep changed session state")
	}
	mustVerify(t, ts, "sw", "after cancelled sweep")

	// Same for a cancelled full run.
	req = httptest.NewRequest("POST", "/v1/sessions/sw/run", nil).WithContext(ctx)
	rec = httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("cancelled run: status %d", rec.Code)
	}
	mustVerify(t, ts, "sw", "after cancelled run")

	// A live run still works and reports the same matches.
	var run RunResponse
	if code := doJSON(t, "POST", ts.URL+"/v1/sessions/sw/run", nil, &run); code != http.StatusOK {
		t.Fatalf("run: status %d", code)
	}
	if run.Matches != before.Matches {
		t.Fatalf("full re-run changed matches: %d vs %d", run.Matches, before.Matches)
	}
}

// Concurrent readers must never observe a half-applied edit. Run with
// -race: readers hammer stats/matches/rules while the writer applies
// a tighten/relax ping-pong.
func TestConcurrentReadersDuringEdits(t *testing.T) {
	ts, _ := newTestServer(t)
	createSession(t, ts, "conc")

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			paths := []string{"/stats", "/matches", "/rules", ""}
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				url := ts.URL + "/v1/sessions/conc" + paths[(i+n)%len(paths)]
				resp, err := http.Get(url)
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("reader got %d from %s", resp.StatusCode, url)
					return
				}
			}
		}(i)
	}
	for k := 0; k < 10; k++ {
		thr := 0.92
		if k%2 == 1 {
			thr = 0.9
		}
		if code := doJSON(t, "POST", ts.URL+"/v1/sessions/conc/edits",
			EditRequest{Op: "set_threshold", Rule: 0, Pred: 0, Threshold: thr}, nil); code != http.StatusOK {
			t.Fatalf("edit %d: status %d", k, code)
		}
	}
	close(stop)
	wg.Wait()
	mustVerify(t, ts, "conc", "after concurrent edits")
}

// Draining: everything but /healthz answers 503 so Shutdown can
// finish in-flight work.
func TestDraining(t *testing.T) {
	ts, srv := newTestServer(t)
	createSession(t, ts, "dr")
	srv.SetDraining(true)
	defer srv.SetDraining(false)

	if code := doJSON(t, "GET", ts.URL+"/v1/sessions/dr/stats", nil, nil); code != http.StatusServiceUnavailable {
		t.Fatalf("draining read: status %d", code)
	}
	var health map[string]string
	if code := doJSON(t, "GET", ts.URL+"/healthz", nil, &health); code != http.StatusOK {
		t.Fatalf("healthz while draining: status %d", code)
	}
	if health["status"] != "draining" {
		t.Fatalf("healthz status %q", health["status"])
	}
}

// Validation and error paths.
func TestRequestValidation(t *testing.T) {
	ts, srv := newTestServer(t)
	base := CreateSessionRequest{Name: "v", TableA: tableACSV, TableB: tableBCSV, Rules: rulesDSL, Block: "cat"}

	cases := []struct {
		name string
		mut  func(r CreateSessionRequest) CreateSessionRequest
		want int
	}{
		{"no name", func(r CreateSessionRequest) CreateSessionRequest { r.Name = ""; return r }, 400},
		{"no tables", func(r CreateSessionRequest) CreateSessionRequest { r.TableA = ""; return r }, 400},
		{"no rules", func(r CreateSessionRequest) CreateSessionRequest { r.Rules = ""; return r }, 400},
		{"both blockers", func(r CreateSessionRequest) CreateSessionRequest { r.BlockTokens = "name"; return r }, 400},
		{"bad rules", func(r CreateSessionRequest) CreateSessionRequest { r.Rules = "rule x: nope("; return r }, 400},
		{"bad block attr", func(r CreateSessionRequest) CreateSessionRequest { r.Block = "zz"; return r }, 400},
	}
	for _, tc := range cases {
		if code := doJSON(t, "POST", ts.URL+"/v1/sessions", tc.mut(base), nil); code != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, code, tc.want)
		}
	}

	createSession(t, ts, "v")
	if code := doJSON(t, "POST", ts.URL+"/v1/sessions", base, nil); code != http.StatusConflict {
		t.Error("duplicate name accepted")
	}
	if code := doJSON(t, "POST", ts.URL+"/v1/sessions/v/edits",
		EditRequest{Op: "launder"}, nil); code != http.StatusBadRequest {
		t.Error("unknown op accepted")
	}
	if code := doJSON(t, "POST", ts.URL+"/v1/sessions/v/edits",
		EditRequest{Op: "remove_rule", Rule: 99}, nil); code != http.StatusBadRequest {
		t.Error("out-of-range rule accepted")
	}
	if code := doJSON(t, "POST", ts.URL+"/v1/sessions/nope/edits",
		EditRequest{Op: "remove_rule"}, nil); code != http.StatusNotFound {
		t.Error("edit on missing session not 404")
	}

	// Body cap: shrink it and push an oversized create.
	srv.MaxBodyBytes = 64
	if code := doJSON(t, "POST", ts.URL+"/v1/sessions", base, nil); code != http.StatusBadRequest {
		t.Error("oversized body accepted")
	}
	srv.MaxBodyBytes = DefaultMaxBodyBytes
}

// The expvar metrics must expose per-endpoint counters.
func TestMetricsPublished(t *testing.T) {
	ts, _ := newTestServer(t)
	createSession(t, ts, "m")
	doJSON(t, "GET", ts.URL+"/v1/sessions/m/stats", nil, nil)

	resp, err := http.Get(ts.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"emserve_requests", "emserve_request_ns", "POST /v1/sessions", "GET /v1/sessions/{name}/stats"} {
		if !strings.Contains(string(data), want) {
			t.Errorf("/debug/vars missing %q", want)
		}
	}
}

// Stats must report a warm memo after a run plus sweep.
func TestStatsMemoHitRate(t *testing.T) {
	ts, _ := newTestServer(t)
	createSession(t, ts, "hr")
	if code := doJSON(t, "POST", ts.URL+"/v1/sessions/hr/sweep",
		SweepRequest{Rule: 0, Pred: 0, Steps: 5}, nil); code != http.StatusOK {
		t.Fatalf("sweep: status %d", code)
	}
	var st StatsResponse
	doJSON(t, "GET", ts.URL+"/v1/sessions/hr/stats", nil, &st)
	if st.MemoEntries == 0 || st.MemoBytes == 0 {
		t.Fatalf("memo not materialized: %+v", st)
	}
	if st.MemoHitRate <= 0 || st.MemoHitRate > 1 {
		t.Fatalf("memo hit rate %v out of range", st.MemoHitRate)
	}
	if st.LastOp.Op == "" {
		t.Fatal("last op missing")
	}
}

// Pagination walks the full match set in small pages without overlap,
// passing each response's opaque nextCursor back verbatim.
func TestMatchPagination(t *testing.T) {
	ts, _ := newTestServer(t)
	createSession(t, ts, "pg")
	seen := map[int]bool{}
	cursor, total, pages := "", -1, 0
	for {
		var page MatchPage
		url := fmt.Sprintf("%s/v1/sessions/pg/matches?limit=2", ts.URL)
		if cursor != "" {
			url += "&cursor=" + cursor
		}
		if code := doJSON(t, "GET", url, nil, &page); code != http.StatusOK {
			t.Fatalf("page at %q: status %d", cursor, code)
		}
		total = page.Total
		pages++
		for _, m := range page.Matches {
			if seen[m.Pair] {
				t.Fatalf("pair %d returned twice", m.Pair)
			}
			seen[m.Pair] = true
		}
		if page.NextCursor == "" {
			break
		}
		cursor = page.NextCursor
	}
	if len(seen) != total || pages < 2 {
		t.Fatalf("pagination saw %d of %d matches over %d pages", len(seen), total, pages)
	}

	// The removed numeric offset is rejected, alone or mixed with a
	// cursor, with an error that points at the cursor.
	for _, q := range []string{"offset=0&limit=2", "offset=0&cursor=" + cursor} {
		var e ErrorResponse
		code := doJSON(t, "GET", ts.URL+"/v1/sessions/pg/matches?"+q, nil, &e)
		if code != http.StatusBadRequest || e.Error.Code != CodeInvalidRequest || !strings.Contains(e.Error.Message, "cursor") {
			t.Fatalf("%s: status %d error %+v", q, code, e.Error)
		}
	}
}
