package server

import (
	"net/http"
	"strings"
	"testing"
)

// TestErrorEnvelope drives every endpoint into each reachable error
// class and asserts the uniform envelope: a machine code from the
// stable table plus a non-empty human message. The envelope shape —
// {"error":{"code":...,"message":...}} — is the API contract; clients
// branch on code, never on message text.
func TestErrorEnvelope(t *testing.T) {
	ts, srv := newTestServer(t)
	createSession(t, ts, "s1")

	cases := []struct {
		name     string
		method   string
		path     string
		body     any
		wantCode int
		wantErr  string
	}{
		// invalid_request: malformed bodies and bad parameters.
		{"create/missing-name", "POST", "/v1/sessions", CreateSessionRequest{TableA: "x", TableB: "y"}, 400, CodeInvalidRequest},
		{"create/missing-tables", "POST", "/v1/sessions", CreateSessionRequest{Name: "n"}, 400, CodeInvalidRequest},
		{"create/bad-csv", "POST", "/v1/sessions", CreateSessionRequest{Name: "n", TableA: "", TableB: tableBCSV}, 400, CodeInvalidRequest},
		{"create/bad-rules", "POST", "/v1/sessions", CreateSessionRequest{Name: "n2", TableA: tableACSV, TableB: tableBCSV, Rules: "rule bad: nonsense((", Block: "cat"}, 400, CodeInvalidRequest},
		{"edit/unknown-op", "POST", "/v1/sessions/s1/edits", EditRequest{Op: "nonsense"}, 400, CodeInvalidRequest},
		{"records/empty-batch", "POST", "/v1/sessions/s1/records", RecordsRequest{}, 400, CodeInvalidRequest},
		{"sweep/bad-rule", "POST", "/v1/sessions/s1/sweep", SweepRequest{RuleName: "nope"}, 400, CodeInvalidRequest},
		{"matches/bad-cursor", "GET", "/v1/sessions/s1/matches?cursor=@@", nil, 400, CodeInvalidRequest},
		{"matches/cursor-trailing-byte", "GET", "/v1/sessions/s1/matches?cursor=AgQMfvqW0byUHAA", nil, 400, CodeInvalidRequest},
		{"matches/bad-limit", "GET", "/v1/sessions/s1/matches?limit=0", nil, 400, CodeInvalidRequest},

		// not_found: the {name} wildcard misses.
		{"get/missing", "GET", "/v1/sessions/nope", nil, 404, CodeNotFound},
		{"delete/missing", "DELETE", "/v1/sessions/nope", nil, 404, CodeNotFound},
		{"rules/missing", "GET", "/v1/sessions/nope/rules", nil, 404, CodeNotFound},
		{"edit/missing", "POST", "/v1/sessions/nope/edits", EditRequest{Op: "set_threshold"}, 404, CodeNotFound},
		{"records/missing", "POST", "/v1/sessions/nope/records", RecordsRequest{DeleteA: []string{"a0"}}, 404, CodeNotFound},
		{"run/missing", "POST", "/v1/sessions/nope/run", nil, 404, CodeNotFound},
		{"sweep/missing", "POST", "/v1/sessions/nope/sweep", SweepRequest{}, 404, CodeNotFound},
		{"matches/missing", "GET", "/v1/sessions/nope/matches", nil, 404, CodeNotFound},
		{"stats/missing", "GET", "/v1/sessions/nope/stats", nil, 404, CodeNotFound},
		{"verify/missing", "POST", "/v1/sessions/nope/verify", nil, 404, CodeNotFound},
		{"snapshot/missing", "GET", "/v1/sessions/nope/snapshot", nil, 404, CodeNotFound},
		{"wal/missing", "GET", "/v1/sessions/nope/wal", nil, 404, CodeNotFound},
		{"bootstrap/missing", "GET", "/v1/sessions/nope/bootstrap", nil, 404, CodeNotFound},

		// conflict: duplicate create; not_durable: WAL reads on an
		// ephemeral server.
		{"create/duplicate", "POST", "/v1/sessions", CreateSessionRequest{Name: "s1", TableA: tableACSV, TableB: tableBCSV, Rules: rulesDSL, Block: "cat"}, 409, CodeConflict},
		{"wal/not-durable", "GET", "/v1/sessions/s1/wal", nil, 409, CodeNotDurable},
		{"bootstrap/not-durable", "GET", "/v1/sessions/s1/bootstrap", nil, 409, CodeNotDurable},

		// cursor_expired: a well-formed token in the retired v1 (JSON,
		// index-only) format. Expiry of a v2 token whose pair was
		// reclaimed is TestCursorAcrossReclamation's.
		{"matches/v1-cursor", "GET", "/v1/sessions/s1/matches?cursor=eyJ2IjoxLCJwIjoyfQ", nil, 410, CodeCursorExpired},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var e ErrorResponse
			code := doJSON(t, tc.method, ts.URL+tc.path, tc.body, &e)
			if code != tc.wantCode {
				t.Fatalf("status = %d, want %d (envelope %+v)", code, tc.wantCode, e)
			}
			if e.Error.Code != tc.wantErr {
				t.Fatalf("code = %q, want %q", e.Error.Code, tc.wantErr)
			}
			if e.Error.Message == "" {
				t.Fatal("empty message")
			}
		})
	}

	// quota_exceeded: exhaust a fresh session's edit quota, then hit it
	// from both edit-class endpoints.
	srv.SetLimits(0, 0, 1)
	createSession(t, ts, "q")
	if code := doJSON(t, "POST", ts.URL+"/v1/sessions/q/edits", EditRequest{
		Op: "set_threshold", Rule: 0, Pred: 0, Threshold: 0.9,
	}, nil); code != http.StatusOK {
		t.Fatalf("quota-charging edit: status %d", code)
	}
	for _, tc := range []struct {
		name, path string
		body       any
	}{
		{"edit/quota", "/v1/sessions/q/edits", EditRequest{Op: "set_threshold", Rule: 0, Pred: 0, Threshold: 0.9}},
		{"records/quota", "/v1/sessions/q/records", RecordsRequest{DeleteA: []string{"a5"}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var e ErrorResponse
			if code := doJSON(t, "POST", ts.URL+tc.path, tc.body, &e); code != 429 || e.Error.Code != CodeQuotaExceeded {
				t.Fatalf("status %d code %q, want 429 quota_exceeded", code, e.Error.Code)
			}
		})
	}

	// unavailable: the drain gate covers every endpoint uniformly.
	srv.SetDraining(true)
	var e ErrorResponse
	if code := doJSON(t, "GET", ts.URL+"/v1/sessions", nil, &e); code != 503 || e.Error.Code != CodeUnavailable {
		t.Fatalf("draining: status %d code %q", code, e.Error.Code)
	}
	srv.SetDraining(false)
}

// TestNotPrimaryEnvelope proves every write route on a replica answers
// 421 not_primary with the primary's URL, while reads keep working.
func TestNotPrimaryEnvelope(t *testing.T) {
	ts, srv := newTestServer(t)
	createSession(t, ts, "s1") // admitted before the role flips
	srv.SetPrimary("http://primary.example:8080")

	writes := []struct {
		method, path string
		body         any
	}{
		{"POST", "/v1/sessions", CreateSessionRequest{Name: "n", TableA: tableACSV, TableB: tableBCSV, Rules: rulesDSL, Block: "cat"}},
		{"DELETE", "/v1/sessions/s1", nil},
		{"POST", "/v1/sessions/s1/edits", EditRequest{Op: "set_threshold", Rule: 0, Pred: 0, Threshold: 0.9}},
		{"POST", "/v1/sessions/s1/records", RecordsRequest{DeleteA: []string{"a0"}}},
	}
	for _, wr := range writes {
		var e ErrorResponse
		code := doJSON(t, wr.method, ts.URL+wr.path, wr.body, &e)
		if code != http.StatusMisdirectedRequest {
			t.Fatalf("%s %s on replica: status %d", wr.method, wr.path, code)
		}
		if e.Error.Code != CodeNotPrimary || e.Error.Primary != "http://primary.example:8080" {
			t.Fatalf("%s %s envelope: %+v", wr.method, wr.path, e.Error)
		}
		if !strings.Contains(e.Error.Message, "primary") {
			t.Fatalf("message does not mention the primary: %q", e.Error.Message)
		}
	}

	// Reads and sweeps still serve.
	for _, rd := range []string{"/v1/sessions", "/v1/sessions/s1", "/v1/sessions/s1/rules", "/v1/sessions/s1/matches", "/v1/sessions/s1/stats"} {
		if code := doJSON(t, "GET", ts.URL+rd, nil, nil); code != http.StatusOK {
			t.Fatalf("GET %s on replica: status %d", rd, code)
		}
	}
	if code := doJSON(t, "POST", ts.URL+"/v1/sessions/s1/sweep", SweepRequest{Rule: 0, Pred: 0, Steps: 3}, nil); code != http.StatusOK {
		t.Fatalf("sweep on replica: status %d", code)
	}
	if code := doJSON(t, "POST", ts.URL+"/v1/sessions/s1/run", nil, nil); code != http.StatusOK {
		t.Fatalf("run on replica: status %d", code)
	}
}
