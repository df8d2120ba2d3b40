package persist

import (
	"fmt"

	"rulematch/internal/core"
	"rulematch/internal/incremental"
	"rulematch/internal/sim"
	"rulematch/internal/table"
)

// Compact returns a physically compacted copy of s: tombstoned records
// and dead pairs are dropped, the surviving records re-indexed densely
// (relative order preserved on both sides), appended extras folded into
// the record sequence, and the memo, materialized bitmaps, work
// counters and blocker carried over. The copy reports base lengths of
// zero, so a snapshot of it is fully self-contained — every live
// record rides in the snapshot as an extra and Load never consults the
// caller's table contents beyond the attribute schema. That is what
// makes evict-time compaction crash-safe: the snapshot can be
// published atomically before the table CSVs are rewritten.
//
// Compact is canonical: two sessions holding the same live state — one
// churned through deletes and reloads, one that never saw an eviction —
// compact to sessions whose snapshots are byte-identical. The
// differential churn tests rely on this.
//
// The input session is not modified. It must have materialized state
// (Session.Run). lib recompiles the matching function over the compacted
// tables; corpus-dependent features (the TF-IDF family) recompute
// their document frequencies over the live records only, so sessions
// using them legitimately change feature values under compaction —
// the same caveat recops.go documents for appends.
func Compact(s *incremental.Session, lib *sim.Library) (*incremental.Session, error) {
	if s.St == nil {
		return nil, fmt.Errorf("persist: cannot compact a session without materialized state")
	}
	c := s.M.C
	liveA, mapA, err := compactTable(c.A)
	if err != nil {
		return nil, err
	}
	liveB, mapB, err := compactTable(c.B)
	if err != nil {
		return nil, err
	}

	// Live pairs, densely re-indexed, original order preserved. liveIdx
	// remembers each new pair's old index for the state/memo copy below.
	dead := s.DeadPairs()
	pairs := make([]table.Pair, 0, s.LivePairCount())
	liveIdx := make([]int32, 0, s.LivePairCount())
	for pi, p := range s.M.Pairs {
		if dead != nil && dead.Get(pi) {
			continue
		}
		na, nb := mapA[p.A], mapB[p.B]
		if na < 0 || nb < 0 {
			return nil, fmt.Errorf("persist: live pair %v references a deleted record", p)
		}
		pairs = append(pairs, table.Pair{A: na, B: nb})
		liveIdx = append(liveIdx, int32(pi))
	}

	c2, err := core.Compile(c.Function(), lib, liveA, liveB)
	if err != nil {
		return nil, fmt.Errorf("persist: re-compile for compaction: %w", err)
	}
	s2 := incremental.NewSession(c2, pairs)
	s2.St = s.St.Gather(liveIdx)

	// Move the memo a whole row per bound feature: gather the live
	// pairs' presence bits and values. A row with no live entry stays
	// unallocated, as it would had its values been copied one at a
	// time. BindFeature re-appends features that rule edits left bound
	// but unused, exactly as Load does; the snapshot's canonical
	// memo-row order makes the resulting bytes independent of feature
	// index numbering.
	if s.M.Memo != nil && s2.M.Memo != nil {
		for fi := range c.Features {
			fi2, err := c2.BindFeature(c.Features[fi].Feature)
			if err != nil {
				return nil, fmt.Errorf("persist: rebind feature %s for compaction: %w",
					c.Features[fi].Feature.Key(), err)
			}
			vals, present := s.M.Memo.Row(fi)
			if present == nil {
				continue
			}
			live := present.Gather(liveIdx)
			if live.Count() == 0 {
				continue
			}
			row := make([]float64, len(liveIdx))
			for ni, opi := range liveIdx {
				row[ni] = vals[opi]
			}
			s2.M.Memo.SetRow(fi2, row, live)
		}
	}
	s2.M.Stats = s.M.Stats
	s2.Blocker = s.Blocker
	// Base lengths of zero: every record is snapshot-authoritative.
	if err := s2.RestoreDataState(0, 0, nil); err != nil {
		return nil, err
	}
	return s2, nil
}

// compactTable copies the live records of t into a fresh table,
// returning it plus an old-index → new-index map (-1 for tombstones).
// Note that compaction releases the IDs of deleted records: they were
// reserved while the tombstone existed, and become appendable again.
func compactTable(t *table.Table) (*table.Table, []int32, error) {
	out, err := table.New(t.Name, t.Attrs)
	if err != nil {
		return nil, nil, fmt.Errorf("persist: compact table: %w", err)
	}
	remap := make([]int32, t.Len())
	for i, r := range t.Records {
		if t.Deleted(i) {
			remap[i] = -1
			continue
		}
		ni, err := out.AppendRecord(r)
		if err != nil {
			return nil, nil, fmt.Errorf("persist: compact table: %w", err)
		}
		remap[i] = int32(ni)
	}
	return out, remap, nil
}
