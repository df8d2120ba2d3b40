package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"testing"

	"rulematch/internal/core"
	"rulematch/internal/incremental"
	"rulematch/internal/sessionstore"
)

// The CI smoke fixture: two records a side, one rule, blocked on cat.
const (
	smokeA     = "id,cat,name\na0,c1,matthew richardson\na1,c2,maria garcia\n"
	smokeB     = "id,cat,name\nb0,c1,matt richardson\nb1,c2,mary garcia\n"
	smokeRules = "rule r1: jaro_winkler(name, name) >= 0.9"
)

func smokeCreate(name string) CreateSessionRequest {
	return CreateSessionRequest{Name: name, TableA: smokeA, TableB: smokeB, Rules: smokeRules, Block: "cat"}
}

func mustMarshal(t testing.TB, v any) []byte {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// serve runs one request through the handler in process.
func serve(h http.Handler, method, path string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
	return rec
}

// TestWireFormat pins the encoding of every JSON route the smoke
// fixture reaches, error envelopes included: compact JSON plus one
// newline, with '<', '>' and '&' unescaped, served as
// application/json with nosniff.
func TestWireFormat(t *testing.T) {
	h := New(core.Config{Workers: 2}).Handler()
	steps := []struct {
		method, path string
		body         any
		status       int
		contains     string // a literal the body must carry
	}{
		{"POST", "/v1/sessions", smokeCreate("w"), 201, `"name":"w"`},
		{"GET", "/v1/sessions", nil, 200, `"sessions":[`},
		{"GET", "/v1/sessions/w", nil, 200, `"rules":1`},
		{"GET", "/v1/sessions/w/rules", nil, 200, `"key":"jaro_winkler(name,name) >= 0.9"`},
		{"POST", "/v1/sessions/w/edits", EditRequest{Op: "relax", Threshold: 0.85}, 200, `"op":"relax_predicate"`},
		{"POST", "/v1/sessions/w/records", RecordsRequest{AppendB: []RecordRow{{ID: "b<&>2", Values: []string{"c1", "matthew richardson"}}}}, 200, `"appended":1`},
		{"POST", "/v1/sessions/w/sweep", SweepRequest{Steps: 3}, 200, `"points":[`},
		{"POST", "/v1/sessions/w/run", nil, 200, `"matches":`},
		{"GET", "/v1/sessions/w/matches", nil, 200, `"idB":"b<&>2"`},
		{"GET", "/v1/sessions/w/stats", nil, 200, `"durable":false`},
		{"POST", "/v1/sessions/w/verify", nil, 200, `"ok":true`},
		{"GET", "/v1/openapi.json", nil, 200, `"openapi":"3.0.3"`},
		{"GET", "/healthz", nil, 200, `"status":"ok"`},
		{"POST", "/v1/sessions/w/edits", EditRequest{Op: "add_predicate", Predicate: "jaccard(name, name) >= 0.5 & <x>"}, 400, `"code":"invalid_request","message":"unexpected trailing input \"& <x>\""`},
		{"GET", "/v1/sessions/nope&more/rules", nil, 404, `"code":"not_found"`},
	}
	for _, st := range steps {
		var req []byte
		if st.body != nil {
			req = mustMarshal(t, st.body)
		}
		rec := serve(h, st.method, st.path, req)
		body := rec.Body.Bytes()
		what := st.method + " " + st.path
		if rec.Code != st.status {
			t.Fatalf("%s: status %d, want %d: %s", what, rec.Code, st.status, body)
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s: Content-Type %q", what, ct)
		}
		if xc := rec.Header().Get("X-Content-Type-Options"); xc != "nosniff" {
			t.Errorf("%s: X-Content-Type-Options %q, want nosniff", what, xc)
		}
		var compact bytes.Buffer
		if err := json.Compact(&compact, body); err != nil {
			t.Fatalf("%s: body is not JSON: %v", what, err)
		}
		if want := compact.String() + "\n"; string(body) != want {
			t.Errorf("%s: body is not compact JSON plus a newline:\n%.300s", what, body)
		}
		for _, esc := range []string{`\u003c`, `\u003e`, `\u0026`} {
			if bytes.Contains(body, []byte(esc)) {
				t.Errorf("%s: body carries the HTML escape %s", what, esc)
			}
		}
		if !bytes.Contains(body, []byte(st.contains)) {
			t.Errorf("%s: body lacks %s:\n%.300s", what, st.contains, body)
		}
	}
}

// TestSweepPointBound: a sweep evaluates at most 1,024 thresholds,
// given as steps or as an explicit list. One more is refused with 400
// before the sweep allocates its per-point bitmaps.
func TestSweepPointBound(t *testing.T) {
	const limit = 1024 // the limit SweepRequest documents
	h := New(core.Config{Workers: 1}).Handler()
	if rec := serve(h, "POST", "/v1/sessions", mustMarshal(t, smokeCreate("s"))); rec.Code != http.StatusCreated {
		t.Fatalf("create: status %d: %s", rec.Code, rec.Body)
	}
	forms := func(n int) map[string]SweepRequest {
		return map[string]SweepRequest{
			"steps":      {Steps: n},
			"thresholds": {Thresholds: incremental.DefaultSweep(n)},
		}
	}
	for form, req := range forms(limit) {
		rec := serve(h, "POST", "/v1/sessions/s/sweep", mustMarshal(t, req))
		var out SweepResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &out); rec.Code != http.StatusOK || err != nil {
			t.Fatalf("%d points as %s: status %d (%v)", limit, form, rec.Code, err)
		}
		if len(out.Points) != limit {
			t.Fatalf("%d points as %s: answered %d points", limit, form, len(out.Points))
		}
	}
	for form, req := range forms(limit + 1) {
		body := mustMarshal(t, req)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rec := serve(h, "POST", "/v1/sessions/s/sweep", body)
		runtime.ReadMemStats(&after)
		var e ErrorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &e); rec.Code != http.StatusBadRequest || err != nil || e.Error.Code != CodeInvalidRequest {
			t.Fatalf("%d points as %s: status %d, body %.200s; want 400 %s", limit+1, form, rec.Code, rec.Body, CodeInvalidRequest)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
			t.Errorf("%d points as %s: refusing allocated %d bytes", limit+1, form, grew)
		}
	}
}

// TestDecodeRejectsUnknownAndTrailing: a body carrying a field its
// request type does not declare, or input after its JSON value, is a
// 400 invalid_request and changes nothing, where a lenient decoder
// would apply a misspelt threshold as 0.
func TestDecodeRejectsUnknownAndTrailing(t *testing.T) {
	h := New(core.Config{Workers: 1}).Handler()
	if rec := serve(h, "POST", "/v1/sessions", mustMarshal(t, smokeCreate("d"))); rec.Code != http.StatusCreated {
		t.Fatalf("create: status %d: %s", rec.Code, rec.Body)
	}
	listing := serve(h, "GET", "/v1/sessions/d/rules", nil).Body.String()
	for _, body := range []string{
		`{"op":"set_threshold","rule":0,"pred":0,"threshhold":0.95}`,
		`{"op":"set_threshold","rule":0,"pred":0,"threshold":0.95} trailing garbage`,
	} {
		rec := serve(h, "POST", "/v1/sessions/d/edits", []byte(body))
		var e ErrorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &e); rec.Code != http.StatusBadRequest || err != nil || e.Error.Code != CodeInvalidRequest {
			t.Errorf("%s: status %d, body %.200s; want 400 %s", body, rec.Code, rec.Body, CodeInvalidRequest)
		}
		if got := serve(h, "GET", "/v1/sessions/d/rules", nil).Body.String(); got != listing {
			t.Errorf("%s: listing changed:\n got %s\nwant %s", body, got, listing)
		}
	}
}

// FuzzRequestBodies posts arbitrary bytes as the body of the edits,
// sweep and records routes of a fresh smoke-fixture session. Every
// answer is a 2xx, or a 4xx envelope carrying one of the codes the
// route declares — never a 5xx or a panic — and the session passes
// VerifyDeep after each request.
func FuzzRequestBodies(f *testing.F) {
	create := mustMarshal(f, smokeCreate("f"))
	declared := map[string][]string{}
	for _, rt := range routes() {
		declared[rt.Method+" "+rt.Path] = rt.ErrCodes
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		srv := New(core.Config{Workers: 1})
		h := srv.Handler()
		if rec := serve(h, "POST", "/v1/sessions", create); rec.Code != http.StatusCreated {
			t.Fatalf("create: status %d: %s", rec.Code, rec.Body)
		}
		for _, op := range []string{"edits", "sweep", "records"} {
			rec := serve(h, "POST", "/v1/sessions/f/"+op, body)
			switch {
			case rec.Code >= 200 && rec.Code < 300:
			case rec.Code >= 400 && rec.Code < 500:
				var e ErrorResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
					t.Fatalf("%s: %d body is not an envelope: %v: %.200s", op, rec.Code, err, rec.Body)
				}
				if codes := declared["POST /v1/sessions/{name}/"+op]; !slices.Contains(codes, e.Error.Code) || e.Error.Message == "" {
					t.Fatalf("%s: %d envelope %+v; the route declares %s", op, rec.Code, e.Error, strings.Join(codes, ", "))
				}
			default:
				t.Fatalf("%s: status %d: %.200s", op, rec.Code, rec.Body)
			}
			sh, err := srv.Store().Acquire("f", sessionstore.ModeRead)
			if err != nil {
				t.Fatalf("after %s: %v", op, err)
			}
			err = sh.Session().VerifyDeep()
			sh.Release()
			if err != nil {
				t.Fatalf("after %s: %v", op, err)
			}
		}
	})
}
