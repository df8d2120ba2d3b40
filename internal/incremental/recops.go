package incremental

import (
	"fmt"

	"rulematch/internal/bitmap"
	"rulematch/internal/table"
)

// Record operations make the *data* side of a session incremental, the
// dual of the paper's rule edits: appended records flow through delta
// blocking into new candidate pairs evaluated in isolation, and
// deleted records tombstone their pairs with a bitmap clear and no
// re-evaluation. Both leave the materialized state satisfying the
// three session invariants over live pairs.
//
// Tombstoned pairs are reclaimed in place once they outnumber the live
// ones (see DeleteRecords), so pair indices are not stable across
// deletes: callers that hold a position across operations key it by
// record IDs. The same reclaiming delete releases the records
// tombstoned since the last one: no pair references them any more, so
// their values become "" and their cached profiles are dropped. Their
// slots and IDs stay in the tables until an eviction compacts the
// session (persist.Compact).
//
// Parity contract for appends (differential-tested): evaluating only
// the delta range leaves state, memo and per-pair stats byte-identical
// to a cold full run over the same pair list — the engines' per-pair
// work is independent of block boundaries, and a new pair shares no
// state with old ones.
//
// Known limitation: corpus-backed similarities (tf_idf, soft_tf_idf)
// keep their document frequencies frozen at feature-bind time, so
// appended records are scored against the original corpus. A snapshot
// reload rebuilds corpora over the grown tables. A corpus built after
// a release counts each released record as an empty document, while a
// session loaded from a snapshot holds its base tombstones' values
// until its next reclamation. Avoid corpus similarities when
// byte-stable recovery across record operations matters.

// AddRecords appends a batch of records to the session's tables,
// blocks them incrementally through the session Blocker, grows the
// pair dimension of memo and bitmaps in place, and evaluates only the
// delta pairs. The whole batch is validated (schema arity, duplicate
// IDs) before anything is mutated, so an error leaves the session
// untouched.
func (s *Session) AddRecords(aRecs, bRecs []table.Record) error {
	if err := s.checkState(); err != nil {
		return err
	}
	if len(aRecs)+len(bRecs) == 0 {
		s.LastOp = OpReport{Op: "add_records"}
		return nil
	}
	if s.Blocker == nil {
		return fmt.Errorf("incremental: session has no blocker; record appends are unavailable")
	}
	a, b := s.M.C.A, s.M.C.B
	if err := validateBatch(a, aRecs); err != nil {
		return err
	}
	if err := validateBatch(b, bRecs); err != nil {
		return err
	}
	oldA, oldB := a.Len(), b.Len()
	for _, r := range aRecs {
		if _, err := a.AppendRecord(r); err != nil {
			return err // unreachable after validateBatch
		}
	}
	for _, r := range bRecs {
		if _, err := b.AppendRecord(r); err != nil {
			return err
		}
	}
	delta, err := s.Blocker.PairsDelta(a, b, oldA, oldB)
	if err != nil {
		return fmt.Errorf("incremental: delta blocking: %w", err)
	}
	s.M.C.ExtendRecords()
	before := s.M.Stats
	oldN := len(s.M.Pairs)
	s.M.ExtendPairs(delta)
	n := len(s.M.Pairs)
	s.St.ExtendPairs(n)
	if s.dead != nil {
		s.dead.Grow(n)
	}
	s.M.MatchStateRange(s.St, oldN, n)
	s.LastOp = OpReport{
		Op:            "add_records",
		PairsExamined: len(delta),
		PairsAdded:    len(delta),
		Stats:         diffStats(before, s.M.Stats),
	}
	return nil
}

// ValidateAppend pre-checks an append batch without mutating the
// session: blocker availability, schema arity and ID uniqueness. Since
// deleted IDs stay permanently reserved, the answer is unaffected by
// deletes applied between this check and AddRecords — callers (the
// emserve records endpoint) use it to make a combined delete+append
// request all-or-nothing.
func (s *Session) ValidateAppend(aRecs, bRecs []table.Record) error {
	if len(aRecs)+len(bRecs) == 0 {
		return nil
	}
	if s.Blocker == nil {
		return fmt.Errorf("incremental: session has no blocker; record appends are unavailable")
	}
	if err := validateBatch(s.M.C.A, aRecs); err != nil {
		return err
	}
	return validateBatch(s.M.C.B, bRecs)
}

// validateBatch pre-checks a record batch against a table: value arity
// and ID uniqueness (against the table and within the batch), so the
// batch either applies in full or not at all.
func validateBatch(t *table.Table, recs []table.Record) error {
	seen := make(map[string]struct{}, len(recs))
	for _, r := range recs {
		if len(r.Values) != len(t.Attrs) {
			return fmt.Errorf("incremental: table %q: record %q has %d values, schema has %d attributes",
				t.Name, r.ID, len(r.Values), len(t.Attrs))
		}
		if _, ok := t.RecordByID(r.ID); ok {
			return fmt.Errorf("incremental: table %q: duplicate record ID %q", t.Name, r.ID)
		}
		if _, dup := seen[r.ID]; dup {
			return fmt.Errorf("incremental: table %q: record ID %q appears twice in the batch", t.Name, r.ID)
		}
		seen[r.ID] = struct{}{}
	}
	return nil
}

// DeleteRecords tombstones records by ID and clears every state bit of
// the pairs they participate in — no re-evaluation is needed: removing
// a record can never make another pair match or unmatch, it only
// removes its own pairs from the result. The record slots (and their
// IDs) stay reserved; the tombstoned pairs are excluded from every
// later operation via the dead bitmap until they outnumber the live
// pairs, when the batch ends by reclaiming them and releasing the
// tombstoned records (reclaimDead) and reports the pair count as
// OpReport.PairsReclaimed. The whole batch is validated before
// anything is mutated.
func (s *Session) DeleteRecords(aIDs, bIDs []string) error {
	if err := s.checkState(); err != nil {
		return err
	}
	if len(aIDs)+len(bIDs) == 0 {
		s.LastOp = OpReport{Op: "delete_records"}
		return nil
	}
	a, b := s.M.C.A, s.M.C.B
	delA, err := resolveLive(a, aIDs)
	if err != nil {
		return err
	}
	delB, err := resolveLive(b, bIDs)
	if err != nil {
		return err
	}
	for _, id := range aIDs {
		if _, err := a.DeleteRecord(id); err != nil {
			return err // unreachable after resolveLive
		}
	}
	for _, id := range bIDs {
		if _, err := b.DeleteRecord(id); err != nil {
			return err
		}
	}
	n := len(s.M.Pairs)
	newDead := bitmap.New(n)
	removed := 0
	for pi, p := range s.M.Pairs {
		if s.dead != nil && s.dead.Get(pi) {
			continue
		}
		if _, dd := delA[p.A]; !dd {
			if _, dd = delB[p.B]; !dd {
				continue
			}
		}
		newDead.Set(pi)
		removed++
	}
	if removed > 0 {
		s.St.ClearPairs(newDead)
		if s.dead == nil {
			s.dead = newDead
		} else {
			s.dead.Or(newDead)
		}
	}
	s.LastOp = OpReport{Op: "delete_records", PairsExamined: removed, PairsRemoved: removed}
	if s.NumDead() > s.LivePairCount() {
		s.LastOp.PairsReclaimed = s.reclaimDead()
	}
	return nil
}

// reclaimDead compacts the pair dimension in place down to the live
// pairs, in order: the pair list, the memo and every state bitmap,
// then drops the dead mask. It returns the number of pairs reclaimed.
// Nothing is evaluated, so the work counters, feature values and
// matches stay as they are.
//
// Once the dead pairs are gone no pair references a tombstoned record,
// so the records tombstoned since the last reclamation are released
// too: their values become "" (table.ReleaseTombstones) and their
// cached profiles are dropped (core.Compiled.ReleaseRecords). Their IDs
// stay reserved and their indices stable; the blocker is untouched.
//
// The trigger (more dead than live pairs) caps pair-indexed state at
// twice the live pairs and keeps the gather's cost amortized O(1) per
// deleted pair. It is a pure function of session state, so a replica
// applying the same WAL records, or a restart replaying them, reclaims
// and releases at the same operation and serializes to the same
// snapshot bytes.
func (s *Session) reclaimDead() int {
	n := len(s.M.Pairs)
	keep := make([]int32, 0, s.LivePairCount())
	for pi := 0; pi < n; pi++ {
		if !s.dead.Get(pi) {
			keep = append(keep, int32(pi))
		}
	}
	pairs := make([]table.Pair, len(keep))
	for i, pi := range keep {
		pairs[i] = s.M.Pairs[pi]
	}
	s.M.Pairs = pairs
	if s.M.Memo != nil {
		s.M.Memo.KeepPairs(keep)
	}
	s.St = s.St.Gather(keep)
	s.dead = nil
	c := s.M.C
	c.ReleaseRecords(0, c.A.ReleaseTombstones())
	c.ReleaseRecords(1, c.B.ReleaseTombstones())
	return n - len(keep)
}

// resolveLive maps IDs to live record indices, failing on unknown or
// already-deleted IDs and duplicates within the batch.
func resolveLive(t *table.Table, ids []string) (map[int32]struct{}, error) {
	out := make(map[int32]struct{}, len(ids))
	for _, id := range ids {
		i, ok := t.RecordByID(id)
		if !ok {
			return nil, fmt.Errorf("incremental: table %q: no record with ID %q", t.Name, id)
		}
		if t.Deleted(i) {
			return nil, fmt.Errorf("incremental: table %q: record %q already deleted", t.Name, id)
		}
		if _, dup := out[int32(i)]; dup {
			return nil, fmt.Errorf("incremental: table %q: record ID %q appears twice in the batch", t.Name, id)
		}
		out[int32(i)] = struct{}{}
	}
	return out, nil
}
