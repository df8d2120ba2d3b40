package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
)

// TestOpenAPICoversRoutes proves the served document and the mux agree
// because they are generated from the same table: every route spec
// appears as a path+method, every declared error code comes from the
// stable table, and the envelope schema is published.
func TestOpenAPICoversRoutes(t *testing.T) {
	ts, _ := newTestServer(t)
	resp, err := http.Get(ts.URL + "/v1/openapi.json")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("openapi: status %d", resp.StatusCode)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		OpenAPI    string                    `json:"openapi"`
		Paths      map[string]map[string]any `json:"paths"`
		Components struct {
			Schemas map[string]any `json:"schemas"`
		} `json:"components"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("openapi does not parse: %v", err)
	}
	if !strings.HasPrefix(doc.OpenAPI, "3.") {
		t.Fatalf("openapi version %q", doc.OpenAPI)
	}
	if err := validateRouteCodes(routes()); err != nil {
		t.Fatal(err)
	}
	for _, rt := range routes() {
		item, ok := doc.Paths[rt.Path]
		if !ok {
			t.Fatalf("path %s missing from document", rt.Path)
		}
		op, ok := item[strings.ToLower(rt.Method)].(map[string]any)
		if !ok {
			t.Fatalf("%s %s missing from document", rt.Method, rt.Path)
		}
		if op["summary"] == "" {
			t.Fatalf("%s %s has no summary", rt.Method, rt.Path)
		}
		// Every operation carries the envelope as its default response.
		responses, _ := op["responses"].(map[string]any)
		if _, ok := responses["default"]; !ok {
			t.Fatalf("%s %s has no default error response", rt.Method, rt.Path)
		}
	}
	// Both request and response wire types made it into components.
	for _, want := range []string{"ErrorResponse", "CreateSessionRequest", "SessionInfo", "MatchPage", "StatsResponse", "BootstrapResponse", "ReplicationStats", "EditRequest"} {
		if _, ok := doc.Components.Schemas[want]; !ok {
			t.Fatalf("schema %s missing from components", want)
		}
	}
	// And the table covers the mux: every documented path answers
	// something other than the mux's own 404/405 for its method. A
	// handler 404 (unknown session) carries the JSON envelope, which the
	// mux's plain-text 404 does not.
	for _, rt := range routes() {
		path := strings.ReplaceAll(rt.Path, "{name}", "zz-missing")
		req, _ := http.NewRequest(rt.Method, ts.URL+path, strings.NewReader("{}"))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusNotFound && !strings.Contains(string(body), `"error"`) {
			t.Fatalf("%s %s: mux-level 404 — route not registered", rt.Method, rt.Path)
		}
		if resp.StatusCode == http.StatusMethodNotAllowed {
			t.Fatalf("%s %s: method not registered", rt.Method, rt.Path)
		}
	}
}

// TestCursorStableAcrossEvictReload proves an opaque cursor handed out
// before a session was evicted still addresses the same position after
// the transparent reload: the walk sees every match exactly once even
// though the session left memory mid-walk. In the tombstone case the
// eviction compacts a deleted record's pairs away, so every pair after
// them comes back at a lower index.
func TestCursorStableAcrossEvictReload(t *testing.T) {
	for _, tc := range []struct {
		name    string
		deleteA []string
		limit   int
	}{
		{"plain", nil, 2},
		{"tombstone", []string{"a0"}, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ts, srv := newDurableServer(t, t.TempDir(), nil)
			createSession(t, ts, "cur")
			if tc.deleteA != nil {
				deleteRecords(t, ts, "cur", tc.deleteA)
			}

			var first MatchPage
			url := fmt.Sprintf("%s/v1/sessions/cur/matches?limit=%d", ts.URL, tc.limit)
			if code := doJSON(t, "GET", url, nil, &first); code != http.StatusOK {
				t.Fatalf("first page: status %d", code)
			}
			if first.NextCursor == "" {
				t.Fatal("fixture too small: one page holds everything")
			}

			// Force the session out of memory: budget for ~1.5 sessions,
			// then admit another so the LRU evictor pushes cur out.
			per := listSessions(t, ts)["cur"].ResidentBytes
			if per == 0 {
				t.Fatal("test setup: zero resident bytes")
			}
			srv.SetLimits(0, per+per/2, 0)
			createSession(t, ts, "pressure")
			if st := listSessions(t, ts)["cur"].State; st != "evicted" {
				t.Fatalf("session cur is %q under budget pressure, want evicted", st)
			}

			// The pre-eviction cursor resumes the walk over the reloaded
			// state.
			seen := map[[2]string]bool{}
			for _, m := range first.Matches {
				seen[matchKey(m)] = true
			}
			resumeWalk(t, ts, "cur", first.NextCursor, tc.limit, seen)
			if len(seen) != first.Total {
				t.Fatalf("walk across eviction saw %d of %d matches", len(seen), first.Total)
			}
		})
	}
}
