package server

import (
	"io"
	"net/http"
	"testing"
	"time"

	"rulematch/internal/wal"
)

// getWal fetches GET .../wal and returns the status, the Em-Seq header
// and the body.
func getWal(t *testing.T, url string) (int, string, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Error(err)
		return 0, "", nil
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Error(err)
	}
	return resp.StatusCode, resp.Header.Get(HeaderSeq), body
}

// TestLongPollWaits covers the ?wait= budget and the one poll loop
// behind the WAL endpoint and the ?consistent= read barrier: a bad
// budget is a 400 on both routes, a caught-up WAL poll answers with the
// new frame once an edit lands, and an idle one runs out its budget
// and answers an empty 200 at the cursor.
func TestLongPollWaits(t *testing.T) {
	ts, _ := newDurableServer(t, t.TempDir(), nil)
	createSession(t, ts, "s1")
	base := ts.URL + "/v1/sessions/s1"
	for _, path := range []string{
		"/wal?from=0&wait=-1", "/wal?from=0&wait=x",
		"/stats?consistent=0&wait=-1", "/stats?consistent=0&wait=x",
	} {
		var e ErrorResponse
		if code := doJSON(t, "GET", base+path, nil, &e); code != http.StatusBadRequest || e.Error.Code != CodeInvalidRequest {
			t.Errorf("GET %s: status %d code %q, want 400 %s", path, code, e.Error.Code, CodeInvalidRequest)
		}
	}
	applyEdits(t, ts, "s1", []EditRequest{{Op: "set_threshold", Rule: 1, Pred: 0, Threshold: 0.6}})

	start := time.Now()
	code, seq, body := getWal(t, base+"/wal?from=1&wait=100")
	if code != http.StatusOK || seq != "1" || len(body) != 0 {
		t.Fatalf("idle poll: status %d, Em-Seq %q, %d body bytes; want 200, 1, empty", code, seq, len(body))
	}
	if waited := time.Since(start); waited < 100*time.Millisecond {
		t.Fatalf("idle poll answered after %v, before its 100ms budget", waited)
	}

	type result struct {
		code int
		seq  string
		body []byte
	}
	got := make(chan result, 1)
	start = time.Now()
	go func() {
		code, seq, body := getWal(t, base+"/wal?from=1&wait=2000")
		got <- result{code, seq, body}
	}()
	applyEdits(t, ts, "s1", []EditRequest{{Op: "set_threshold", Rule: 1, Pred: 0, Threshold: 0.7}})
	res := <-got
	if res.code != http.StatusOK || res.seq != "2" {
		t.Fatalf("waiting poll: status %d, Em-Seq %q; want 200, 2", res.code, res.seq)
	}
	recs, err := wal.DecodeFrames(res.body)
	if err != nil || len(recs) != 1 || recs[0].Seq != 2 || recs[0].Threshold != 0.7 {
		t.Fatalf("waiting poll shipped %+v (err %v), want the one new record", recs, err)
	}
	if waited := time.Since(start); waited >= 2*time.Second {
		t.Fatalf("waiting poll ran out its budget (%v) instead of answering the edit", waited)
	}

	// The barrier runs the same loop: reached at once, or 503 when its
	// budget runs out first.
	if code := doJSON(t, "GET", base+"/stats?consistent=2", nil, nil); code != http.StatusOK {
		t.Fatalf("barrier at the journal's seq: status %d, want 200", code)
	}
	var e ErrorResponse
	if code := doJSON(t, "GET", base+"/stats?consistent=3&wait=50", nil, &e); code != http.StatusServiceUnavailable || e.Error.Code != CodeUnavailable {
		t.Fatalf("barrier past the journal's seq: status %d code %q, want 503 %s", code, e.Error.Code, CodeUnavailable)
	}
}
