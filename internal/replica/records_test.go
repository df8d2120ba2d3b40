package replica

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"slices"
	"strings"
	"testing"

	"rulematch/internal/block"
	"rulematch/internal/core"
	"rulematch/internal/incremental"
	"rulematch/internal/rule"
	"rulematch/internal/server"
	"rulematch/internal/sim"
	"rulematch/internal/table"
)

// streamRow is the i-th appended record of one side: alternating
// blocking categories, names and cities drawn from the fixture's so
// appended records match the base ones and each other.
func streamRow(side string, i int) server.RecordRow {
	names := []string{"john smith", "jon smith", "maria garcia", "mary garcia", "wei chen", "jane smyth"}
	cities := []string{"madison", "chicago", "milwaukee"}
	return server.RecordRow{
		ID:     fmt.Sprintf("s%s%d", side, i),
		Values: []string{fmt.Sprintf("c%d", 1+i%2), names[(i*5+len(side))%len(names)], cities[i%len(cities)]},
	}
}

// postRecords sends one records batch to the primary.
func postRecords(t *testing.T, base, name string, req server.RecordsRequest) server.RecordsResponse {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	var data []byte
	if code := doJSON(t, "POST", base+"/v1/sessions/"+name+"/records", string(body), &data); code != http.StatusOK {
		t.Fatalf("records: status %d: %s", code, data)
	}
	var resp server.RecordsResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		t.Fatal(err)
	}
	return resp
}

// pagedMatchIDs walks every page of a node's matches (small pages, so
// the walk crosses many cursors) and keys each match by record IDs.
func pagedMatchIDs(t *testing.T, base, name string) map[[2]string]bool {
	t.Helper()
	out := map[[2]string]bool{}
	cursor := ""
	for {
		u := base + "/v1/sessions/" + name + "/matches?limit=3"
		if cursor != "" {
			u += "&cursor=" + url.QueryEscape(cursor)
		}
		var data []byte
		if code := doJSON(t, "GET", u, "", &data); code != http.StatusOK {
			t.Fatalf("matches page: status %d: %s", code, data)
		}
		var page server.MatchPage
		if err := json.Unmarshal(data, &page); err != nil {
			t.Fatal(err)
		}
		for _, m := range page.Matches {
			k := [2]string{m.IDA, m.IDB}
			if out[k] {
				t.Fatalf("match %v served twice", k)
			}
			out[k] = true
		}
		if page.NextCursor == "" {
			if len(out) != page.Total {
				t.Fatalf("walked %d matches, total says %d", len(out), page.Total)
			}
			return out
		}
		cursor = page.NextCursor
	}
}

// coldMatchIDs is the oracle: the fixture's rules over the live
// records, blocked and run from scratch under cfg.
func coldMatchIDs(t *testing.T, cfg core.Config, live map[string][]table.Record) map[[2]string]bool {
	t.Helper()
	tbl := func(name, csv string) *table.Table {
		base, err := table.ReadCSV(strings.NewReader(csv), name)
		if err != nil {
			t.Fatal(err)
		}
		out := table.MustNew(name, base.Attrs)
		for _, r := range live[name] {
			if _, err := out.AppendRecord(r); err != nil {
				t.Fatal(err)
			}
		}
		return out
	}
	a, b := tbl("A", tableACSV), tbl("B", tableBCSV)
	f, err := rule.ParseFunction(rulesDSL)
	if err != nil {
		t.Fatal(err)
	}
	c, err := core.Compile(f, sim.Standard(), a, b)
	if err != nil {
		t.Fatal(err)
	}
	pairs, err := block.AttrEquivalence{Attr: "cat"}.Pairs(a, b)
	if err != nil {
		t.Fatal(err)
	}
	s := incremental.NewSessionConfig(c, pairs, cfg)
	if err := s.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	out := map[[2]string]bool{}
	for pi, p := range s.M.Pairs {
		if s.St.Matched.Get(pi) {
			out[[2]string{a.Records[p.A].ID, b.Records[p.B].ID}] = true
		}
	}
	return out
}

// TestRecordStreamReplicates streams record append/delete batches
// through a primary tailed by a follower until the primary has
// reclaimed dead pairs at least twice. The primary compacts
// its journal on every write (CompactAt=1) and the follower's cursor is
// aged once mid-stream, so it re-bootstraps from a snapshot taken
// between reclamations and replays the later ones itself. At every
// checkpoint the follower's snapshot is byte-identical to the
// primary's; at the end its paged matches, keyed by record IDs, equal a
// cold run over the live tables.
func TestRecordStreamReplicates(t *testing.T) {
	// batch names the engine every session runs.
	t.Run("batch", func(t *testing.T) {
		cfg := engineConfig()
		pts, _ := newPrimary(t, cfg, 1)
		createSession(t, pts.URL, "rs")
		fts, m := newFollower(t, cfg, pts.URL)
		waitConverged(t, m, "rs", 0)

		// live tracks each table's records for the oracle.
		live := map[string][]table.Record{}
		for name, csv := range map[string]string{"A": tableACSV, "B": tableBCSV} {
			base, err := table.ReadCSV(strings.NewReader(csv), name)
			if err != nil {
				t.Fatal(err)
			}
			live[name] = append(live[name], base.Records...)
		}
		drop := func(name string, ids []string) {
			kept := live[name][:0]
			for _, r := range live[name] {
				if !slices.Contains(ids, r.ID) {
					kept = append(kept, r)
				}
			}
			live[name] = kept
		}
		checkpoint := func(step int) {
			t.Helper()
			want := primarySeq(t, pts.URL, "rs")
			waitConverged(t, m, "rs", want)
			if !bytes.Equal(snapshotBytes(t, pts.URL, "rs"), snapshotBytes(t, fts.URL, "rs")) {
				t.Fatalf("step %d: follower snapshot differs from primary at seq %d", step, want)
			}
		}

		reclaims := 0
		const perStep, lag = 2, 3
		for step := 0; step < 24; step++ {
			var req server.RecordsRequest
			for i := step * perStep; i < (step+1)*perStep; i++ {
				req.AppendA = append(req.AppendA, streamRow("a", i))
				req.AppendB = append(req.AppendB, streamRow("b", i))
			}
			// Retire the rows appended lag steps ago, and one base
			// record now and then.
			if step >= lag {
				for i := (step - lag) * perStep; i < (step-lag+1)*perStep; i++ {
					req.DeleteA = append(req.DeleteA, streamRow("a", i).ID)
					req.DeleteB = append(req.DeleteB, streamRow("b", i).ID)
				}
			}
			if step%8 == 4 {
				req.DeleteB = append(req.DeleteB, fmt.Sprintf("b%d", step/8))
			}
			resp := postRecords(t, pts.URL, "rs", req)
			if resp.DeleteReport != nil && resp.DeleteReport.PairsReclaimed > 0 {
				reclaims++
			}
			drop("A", req.DeleteA)
			drop("B", req.DeleteB)
			for _, r := range req.AppendA {
				live["A"] = append(live["A"], table.Record{ID: r.ID, Values: r.Values})
			}
			for _, r := range req.AppendB {
				live["B"] = append(live["B"], table.Record{ID: r.ID, Values: r.Values})
			}

			if step == 9 {
				// Age the follower's cursor past the primary's
				// journal floor: it must re-bootstrap.
				checkpoint(step)
				m.mu.Lock()
				f := m.followers["rs"]
				m.mu.Unlock()
				f.mu.Lock()
				f.applied = 1
				f.mu.Unlock()
			}
			if step%6 == 5 {
				checkpoint(step)
			}
		}
		if reclaims < 2 {
			t.Fatalf("stream reclaimed dead pairs %d times, want at least 2", reclaims)
		}
		t.Logf("%d reclamations, %d live A, %d live B", reclaims, len(live["A"]), len(live["B"]))
		checkpoint(24)
		for _, st := range m.Status() {
			if st.Name == "rs" && st.Rebootstraps == 0 {
				t.Fatal("follower never re-bootstrapped mid-stream")
			}
		}
		got, want := pagedMatchIDs(t, fts.URL, "rs"), coldMatchIDs(t, cfg, live)
		if len(want) == 0 {
			t.Fatal("degenerate stream: the cold run matches nothing")
		}
		for k := range want {
			if !got[k] {
				t.Fatalf("follower is missing cold match %v (%d vs %d matches)", k, len(got), len(want))
			}
		}
		for k := range got {
			if !want[k] {
				t.Fatalf("follower serves %v, which the cold run does not match", k)
			}
		}
	})
}
