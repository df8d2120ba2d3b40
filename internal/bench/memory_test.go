package bench

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"rulematch/internal/cliflags"
	"rulematch/internal/core"
	"rulematch/internal/datagen"
	"rulematch/internal/incremental"
	"rulematch/internal/rule"
	"rulematch/internal/table"
)

// liveHeap returns the live heap after a forced collection.
func liveHeap() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// TestSessionHeapTracksAccountedBytes builds a products session the way
// emserve does (its engine config, every mined rule, a full run) — and,
// for the profiles=false case, the way incremental.NewSession does, over
// a compiled function without the profile cache — and requires the
// live heap it adds to stay within 1.5× of what the session accounts
// for: memo + bitmaps (§7.4) + the compiled function's profile cache. A structure that grows with use but is in none of
// those — a per-token-pair score cache, say — breaks the bound, and
// with it any memory budget derived from these figures.
func TestSessionHeapTracksAccountedBytes(t *testing.T) {
	for _, scale := range []float64{0.02, 0.05} {
		if scale > 0.02 && testing.Short() {
			t.Logf("scale %v skipped in -short mode", scale)
			continue
		}
		task, err := PrepareTask(datagen.Products(), scale, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, profiles := range []bool{true, false} {
			t.Run(fmt.Sprintf("scale=%v/profiles=%v", scale, profiles), func(t *testing.T) {
				before := liveHeap()
				c, err := task.CompileSubset(len(task.Rules))
				if err != nil {
					t.Fatal(err)
				}
				var s *incremental.Session
				if profiles {
					s = incremental.NewSessionConfig(c, task.Pairs(), cliflags.NewEngine().Config())
				} else {
					s = incremental.NewSession(c, task.Pairs())
				}
				if err := s.Run(context.Background()); err != nil {
					t.Fatal(err)
				}
				growth := int64(liveHeap()) - int64(before)
				memo, bitmaps := s.MemoryBytes()
				profileBytes := int64(c.ProfileBytes())
				accounted := memo + bitmaps + profileBytes
				ratio := float64(growth) / float64(accounted)
				t.Logf("heap growth %d B; memo %d + bitmaps %d + profiles %d = %d B (%.2fx)",
					growth, memo, bitmaps, profileBytes, accounted, ratio)
				if ratio > 1.5 {
					t.Errorf("session heap growth is %.2fx its memo + bitmaps + profiles, want <= 1.5x", ratio)
				}
				runtime.KeepAlive(s)
			})
		}
	}
}

// TestRecordStreamReleasesRecords streams records through a products
// session the way perfbench's replicated-stream does: half of table B
// held out, corpus-dependent rules dropped, and every step appends 20
// held-out rows under fresh IDs and deletes the rows appended 10 steps
// earlier, under emserve's engine config. Once deletes have reclaimed
// dead pairs at least twice, the profile cache must track the live
// records rather than every record ever appended — at most 2x the
// profile bytes of a cold session over the live records alone — and
// the session's heap growth must stay within 1.5x of its memo +
// bitmaps + profile bytes.
func TestRecordStreamReleasesRecords(t *testing.T) {
	const (
		scale  = 0.05
		steps  = 240
		batch  = 20
		retire = 10
	)
	if testing.Short() {
		t.Skip("record stream at scale 0.05 skipped in -short mode")
	}
	task, err := PrepareTask(datagen.Products(), scale, 0)
	if err != nil {
		t.Fatal(err)
	}
	rules, err := corpusFreeRules(task)
	if err != nil {
		t.Fatal(err)
	}
	f := rule.Function{Rules: rules}
	ds := task.DS
	cut := ds.B.Len() / 2
	held := ds.B.Records[cut:]
	base := table.MustNew(ds.B.Name, ds.B.Attrs)
	for _, r := range ds.B.Records[:cut] {
		if _, err := base.AppendRecord(r); err != nil {
			t.Fatal(err)
		}
	}
	// The streamed rows are inputs, like the held-out values they reuse:
	// build their IDs before measuring.
	var ids [][]string
	for step := range steps {
		ids = append(ids, make([]string, batch))
		for k := range batch {
			ids[step][k] = fmt.Sprintf("%s~%d", held[(step*batch+k)%len(held)].ID, step)
		}
	}

	before := liveHeap()
	s := newStreamSession(t, f, task, ds.A, base)
	reclaims := 0
	for step := range steps {
		recs := make([]table.Record, batch)
		for k := range recs {
			recs[k] = table.Record{ID: ids[step][k], Values: held[(step*batch+k)%len(held)].Values}
		}
		if err := s.AddRecords(nil, recs); err != nil {
			t.Fatal(err)
		}
		if step >= retire {
			if err := s.DeleteRecords(nil, ids[step-retire]); err != nil {
				t.Fatal(err)
			}
			if s.LastOp.PairsReclaimed > 0 {
				reclaims++
			}
		}
	}
	growth := int64(liveHeap()) - int64(before)
	if reclaims < 2 {
		t.Fatalf("stream reclaimed dead pairs %d times, want at least 2", reclaims)
	}
	memo, bitmaps := s.MemoryBytes()
	profileBytes := int64(s.M.C.ProfileBytes())
	accounted := memo + bitmaps + profileBytes

	// The cold oracle: the same function over copies of the live records.
	live := func(src *table.Table) *table.Table {
		out := table.MustNew(src.Name, src.Attrs)
		for i, r := range src.Records {
			if !src.Deleted(i) {
				if _, err := out.AppendRecord(r); err != nil {
					t.Fatal(err)
				}
			}
		}
		return out
	}
	cold := newStreamSession(t, f, task, live(s.M.C.A), live(s.M.C.B))
	if got, want := s.MatchCount(), cold.MatchCount(); got != want {
		t.Fatalf("streamed session holds %d matches, cold run %d", got, want)
	}
	coldProfiles := int64(cold.M.C.ProfileBytes())
	profileRatio := float64(profileBytes) / float64(coldProfiles)
	heapRatio := float64(growth) / float64(accounted)
	t.Logf("%d steps, %d reclamations, B %d records (%d tombstoned)", steps, reclaims, s.M.C.B.Len(), s.M.C.B.NumDeleted())
	t.Logf("profiles %d B vs %d B cold over the live records (%.2fx)", profileBytes, coldProfiles, profileRatio)
	t.Logf("heap growth %d B; memo %d + bitmaps %d + profiles %d = %d B (%.2fx)",
		growth, memo, bitmaps, profileBytes, accounted, heapRatio)
	if profileRatio > 2 {
		t.Errorf("streamed session caches %.2fx the profile bytes of a cold session over its live records, want <= 2x", profileRatio)
	}
	if heapRatio > 1.5 {
		t.Errorf("session heap growth is %.2fx its memo + bitmaps + profiles, want <= 1.5x", heapRatio)
	}
	runtime.KeepAlive(s)
}

// newStreamSession blocks and runs f over a and b under emserve's engine
// config, with the blocker attached for record ops.
func newStreamSession(t *testing.T, f rule.Function, task *Task, a, b *table.Table) *incremental.Session {
	t.Helper()
	blocker := task.DS.Blocker()
	c, err := core.Compile(f, task.Lib, a, b)
	if err != nil {
		t.Fatal(err)
	}
	pairs, err := blocker.Pairs(a, b)
	if err != nil {
		t.Fatal(err)
	}
	s := incremental.NewSessionConfig(c, pairs, cliflags.NewEngine().Config())
	s.Blocker = blocker
	if err := s.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	return s
}
