package server

import (
	"encoding/base64"
	"fmt"
	"hash/fnv"
	"net/http"
	"net/http/httptest"
	"testing"
)

// matchKey identifies a match by record IDs: pair indices move when
// dead pairs are reclaimed or compacted away.
func matchKey(m MatchedPair) [2]string { return [2]string{m.IDA, m.IDB} }

// resumeWalk pages from cursor to the end at the given page size,
// adding every match to seen and failing on any match served twice.
func resumeWalk(t *testing.T, ts *httptest.Server, name, cursor string, limit int, seen map[[2]string]bool) {
	t.Helper()
	for cursor != "" {
		var page MatchPage
		url := fmt.Sprintf("%s/v1/sessions/%s/matches?limit=%d&cursor=%s", ts.URL, name, limit, cursor)
		if code := doJSON(t, "GET", url, nil, &page); code != http.StatusOK {
			t.Fatalf("resume page: status %d", code)
		}
		for _, m := range page.Matches {
			if seen[matchKey(m)] {
				t.Fatalf("match %v served twice", matchKey(m))
			}
			seen[matchKey(m)] = true
		}
		cursor = page.NextCursor
	}
}

// fullWalk pages through every match from the start.
func fullWalk(t *testing.T, ts *httptest.Server, name string) map[[2]string]bool {
	t.Helper()
	var first MatchPage
	if code := doJSON(t, "GET", ts.URL+"/v1/sessions/"+name+"/matches?limit=1", nil, &first); code != http.StatusOK {
		t.Fatalf("first page: status %d", code)
	}
	seen := map[[2]string]bool{}
	for _, m := range first.Matches {
		seen[matchKey(m)] = true
	}
	resumeWalk(t, ts, name, first.NextCursor, 1, seen)
	if len(seen) != first.Total {
		t.Fatalf("walk saw %d of %d matches", len(seen), first.Total)
	}
	return seen
}

func deleteRecords(t *testing.T, ts *httptest.Server, name string, deleteA []string) RecordsResponse {
	t.Helper()
	var resp RecordsResponse
	if code := doJSON(t, "POST", ts.URL+"/v1/sessions/"+name+"/records", RecordsRequest{DeleteA: deleteA}, &resp); code != http.StatusOK {
		t.Fatalf("delete %v: status %d", deleteA, code)
	}
	return resp
}

// otherA lists every A record of the fixture except keep.
func otherA(keep string) []string {
	var out []string
	for i := 0; i < 6; i++ {
		if id := fmt.Sprintf("a%d", i); id != keep {
			out = append(out, id)
		}
	}
	return out
}

// TestCursorAcrossReclamation pages once, then deletes enough records
// that the resident session reclaims its dead pairs — renumbering every
// survivor — before the walk resumes. A cursor whose pair survived
// resumes at the pair's new index and serves every surviving match
// once; a cursor whose pair was reclaimed answers 410 cursor_expired,
// and restarting the walk serves every match once.
func TestCursorAcrossReclamation(t *testing.T) {
	for _, tc := range []struct {
		name    string
		expired bool
	}{{"survivor", false}, {"expired", true}} {
		t.Run(tc.name, func(t *testing.T) {
			ts, _ := newTestServer(t)
			createSession(t, ts, "rc")
			var first MatchPage
			if code := doJSON(t, "GET", ts.URL+"/v1/sessions/rc/matches?limit=1", nil, &first); code != http.StatusOK {
				t.Fatalf("first page: status %d", code)
			}
			// Peek at the pair the cursor addresses.
			var next MatchPage
			if code := doJSON(t, "GET", ts.URL+"/v1/sessions/rc/matches?limit=1&cursor="+first.NextCursor, nil, &next); code != http.StatusOK || len(next.Matches) != 1 {
				t.Fatalf("peek: status %d, %d matches", code, len(next.Matches))
			}
			target := next.Matches[0]

			// Keep one A record: the cursor pair's when it should survive,
			// another one when it should expire. Five of six A records go,
			// so dead pairs outnumber live ones and the delete reclaims.
			keep := target.IDA
			if tc.expired {
				keep = first.Matches[0].IDA
				if keep == target.IDA {
					t.Fatal("fixture: the first two matches share an A record")
				}
			}
			resp := deleteRecords(t, ts, "rc", otherA(keep))
			if resp.DeleteReport == nil || resp.DeleteReport.PairsReclaimed == 0 {
				t.Fatalf("delete did not reclaim: %+v", resp.DeleteReport)
			}
			want := fullWalk(t, ts, "rc")

			if tc.expired {
				var env ErrorResponse
				code := doJSON(t, "GET", ts.URL+"/v1/sessions/rc/matches?limit=1&cursor="+first.NextCursor, nil, &env)
				if code != http.StatusGone || env.Error.Code != CodeCursorExpired {
					t.Fatalf("cursor of a reclaimed pair: status %d code %q, want 410 %s", code, env.Error.Code, CodeCursorExpired)
				}
				return // fullWalk above is the restarted walk
			}
			seen := map[[2]string]bool{}
			resumeWalk(t, ts, "rc", first.NextCursor, 1, seen)
			if !seen[matchKey(target)] {
				t.Fatalf("resumed walk skipped the cursor's own pair %v", matchKey(target))
			}
			for k := range want {
				if !seen[k] && k != matchKey(first.Matches[0]) {
					t.Fatalf("resumed walk skipped surviving match %v", k)
				}
			}
			for k := range seen {
				if !want[k] {
					t.Fatalf("resumed walk served %v, which is not a match", k)
				}
			}
		})
	}
}

// TestPairFingerprintIsFNV1a pins the inlined hash to hash/fnv.
func TestPairFingerprintIsFNV1a(t *testing.T) {
	for _, ids := range [][2]string{{"", ""}, {"a0", "b0"}, {"a", "0b"}, {"a0b", ""}, {"ü", "\x00"}} {
		h := fnv.New64a()
		h.Write([]byte(ids[0] + "\x00" + ids[1]))
		if got, want := pairFingerprint(ids[0], ids[1]), h.Sum64(); got != want {
			t.Fatalf("pairFingerprint(%q, %q) = %x, want %x", ids[0], ids[1], got, want)
		}
	}
}

// FuzzCursor: decoding arbitrary tokens never panics, and every token
// the decoder accepts is canonical — it re-encodes to the same bytes.
func FuzzCursor(f *testing.F) {
	f.Add(encodeCursor(matchCursor{pair: 0, fp: pairFingerprint("a0", "b0")}))
	f.Add(encodeCursor(matchCursor{pair: 70000, fp: 1<<64 - 1}))
	f.Add(base64.RawURLEncoding.EncodeToString([]byte(`{"v":1,"p":3}`)))
	f.Add(base64.RawURLEncoding.EncodeToString([]byte{cursorVersion, 0x80, 0x00, 1, 2, 3, 4, 5, 6, 7, 8}))
	f.Add("not base64!")
	f.Add("")
	f.Fuzz(func(t *testing.T, tok string) {
		c, err := decodeCursor(tok)
		if err != nil {
			return
		}
		if c.pair < 0 {
			t.Fatalf("decoded negative pair index %d from %q", c.pair, tok)
		}
		if re := encodeCursor(c); re != tok {
			t.Fatalf("accepted %q re-encodes to %q", tok, re)
		}
	})
}
