// Package incremental implements the incremental matching of Section 6:
// a Session materializes the memo, per-rule match sets and per-predicate
// false sets across runs, and applies rule-set changes — add/tighten
// predicate (Algorithm 7), remove/relax predicate (Algorithm 8), remove
// rule (Algorithm 9), add rule (Algorithm 10) — touching only affected
// pairs.
//
// Invariants maintained across operations (they make the paper's
// "re-evaluate only rules after r" optimization sound):
//
//  1. Ownership: a matched pair is recorded in RuleTrue of exactly one
//     rule — the first rule (in current order) that evaluates true for
//     it — and every earlier rule evaluates false for that pair.
//  2. Witness: for every unmatched pair, every rule has at least one
//     predicate with a recorded false bit that is currently false.
//  3. Soundness: every recorded false bit corresponds to a predicate
//     that is currently false for that pair.
//
// Relaxing or removing a predicate can make an *earlier* rule true for a
// pair currently owned by a later rule; the session migrates ownership
// to preserve invariant 1 (the paper's Algorithms 7/8 as literally
// written would otherwise mis-unmatch such pairs on a later tighten).
// The state is the only source of these decisions: owners are read
// from RuleTrue, and a rule holding a recorded false bit for a pair is
// false for it (invariant 3), so cascades and sweeps skip it.
package incremental

import (
	"context"
	"fmt"
	"slices"

	"rulematch/internal/bitmap"
	"rulematch/internal/block"
	"rulematch/internal/core"
	"rulematch/internal/rule"
	"rulematch/internal/table"
)

// Session holds matching state alive across incremental rule changes
// and, when a Blocker is installed, incremental record changes (the
// pair set becomes a growable dimension; see AddRecords).
type Session struct {
	M  *core.Matcher
	St *core.MatchState
	// Blocker, when non-nil, is the delta-capable blocking strategy
	// that produced the session's candidate pairs; AddRecords uses it
	// to block appended records incrementally. Sessions without one
	// reject record appends (record deletes never need blocking).
	Blocker block.DeltaBlocker
	// LastOp reports work done by the most recent operation.
	LastOp OpReport

	// baseA/baseB are the table lengths at session creation; records
	// past them arrived through AddRecords. Snapshots persist the
	// appended suffix so recovery can rebuild the grown pair space.
	baseA, baseB int
	// dead marks tombstoned pairs (a deleted record on either side);
	// nil until the first delete. Dead pairs carry no state bits and
	// are skipped by every operation and full run.
	dead *bitmap.Bits
}

// OpReport describes the work performed by one incremental operation.
type OpReport struct {
	Op             string
	PairsExamined  int        // candidate pairs the operation touched
	Stats          core.Stats // engine work during the operation
	OwnershipMoves int        // pairs whose owning rule changed
	PairsAdded     int        // new candidate pairs (record appends)
	PairsRemoved   int        // tombstoned pairs (record deletes)
	PairsReclaimed int        // tombstoned pairs compacted away (record deletes)
}

// NewSession compiles nothing itself: pass a compiled function (already
// ordered if desired) and the candidate pairs. The session enables
// dynamic memoing and check-cache-first, the paper's recommended
// configuration for interactive debugging, runs on one worker and
// leaves the compiled function's profile cache as it is. The debug
// server and the CLIs build theirs with NewSessionConfig.
func NewSession(c *core.Compiled, pairs []table.Pair) *Session {
	m := core.NewMatcher(c, pairs)
	m.CheckCacheFirst = true
	return &Session{M: m, baseA: c.A.Len(), baseB: c.B.Len()}
}

// NewSessionConfig builds a session on the configured matcher
// (core.Config.NewMatcher) — the form the debug server and CLIs use
// after binding flags to a Config.
func NewSessionConfig(c *core.Compiled, pairs []table.Pair, cfg core.Config) *Session {
	return &Session{M: cfg.NewMatcher(c, pairs), baseA: c.A.Len(), baseB: c.B.Len()}
}

// Run evaluates the function from scratch over every pair and
// materializes the state, sharded over the session's configured worker
// count (core.Config.Workers, carried on the matcher; one worker is
// the same run on a single goroutine). Call it once before incremental
// operations; the memo persists, so later full runs are cheaper too —
// a re-run on the warm memo is the "precomputation variation" of §7.6.
//
// Materialization uses the static predicate order, so the recorded
// false bits are deterministic and identical across worker counts and
// block sizes; check-cache-first resumes for the per-pair incremental
// operations that follow. ctx is checked between chunks: on
// cancellation ctx's error is returned and the previous materialized
// state, match count and stats all stand, so Verify/VerifyDeep still
// pass. The memo may keep the feature values computed by chunks that
// ran before the cancel; each is exact, so later operations read them
// as ordinary hits.
func (s *Session) Run(ctx context.Context) error {
	before := s.M.Stats
	st, err := s.M.MatchStateParallelCtx(ctx, s.M.Workers)
	if err != nil {
		return err
	}
	s.St = st
	// Full runs evaluate every pair (the engine is oblivious to
	// liveness), and a dead pair must carry no state bits.
	if s.dead != nil {
		s.St.ClearPairs(s.dead)
	}
	s.LastOp = OpReport{Op: "full_parallel", PairsExamined: len(s.M.Pairs), Stats: diffStats(before, s.M.Stats)}
	return nil
}

// Reconfigure applies cfg to a live session the way
// NewSessionConfig would (core.Config.Apply: worker count,
// check-cache-first, profile cache on) and keeps the memo and
// materialized state — this is how a persist-loaded session (built by
// NewSession) picks up a server or CLI configuration without
// discarding the snapshot's warm state.
func (s *Session) Reconfigure(cfg core.Config) {
	cfg.Apply(s.M)
}

// Matched returns whether pair pi currently matches.
func (s *Session) Matched(pi int) bool { return s.St.Matched.Get(pi) }

// MatchCount returns the current number of matched pairs.
func (s *Session) MatchCount() int { return s.St.Matched.Count() }

func diffStats(before, after core.Stats) core.Stats {
	return core.Stats{
		FeatureComputes: after.FeatureComputes - before.FeatureComputes,
		MemoHits:        after.MemoHits - before.MemoHits,
		ValueCacheHits:  after.ValueCacheHits - before.ValueCacheHits,
		PredEvals:       after.PredEvals - before.PredEvals,
		RuleEvals:       after.RuleEvals - before.RuleEvals,
		PairEvals:       after.PairEvals - before.PairEvals,
	}
}

// checkState guards operations that require a prior Run.
func (s *Session) checkState() error {
	if s.St == nil {
		return fmt.Errorf("incremental: Run must be called before incremental operations")
	}
	return nil
}

func (s *Session) checkRule(ri int) error {
	if ri < 0 || ri >= len(s.M.C.Rules) {
		return fmt.Errorf("incremental: rule index %d out of range [0,%d)", ri, len(s.M.C.Rules))
	}
	return nil
}

// firstFiring returns the first rule at or after from that fires for
// pair pi, or -1, recording the false bits it finds into st when st is
// non-nil. A rule that already holds a recorded false bit for pi is
// false (invariant 3), so it is skipped without being evaluated.
func (s *Session) firstFiring(from, pi int, st *core.MatchState) int {
	for rj := from; rj < len(s.M.C.Rules); rj++ {
		refuted := slices.ContainsFunc(s.St.PredFalse[rj], func(pf *bitmap.Bits) bool { return pf.Get(pi) })
		if !refuted && s.M.EvalRule(rj, pi, st) {
			return rj
		}
	}
	return -1
}

// evalRuleRecordFalse evaluates every predicate of rule ri for pair pi
// (no early exit within the rule), recording false bits for all failing
// predicates and clearing stale bits for passing ones. Returns whether
// the rule is true. Used after relaxing/removing predicates where the
// old exit point is no longer valid (paper footnote 2).
func (s *Session) evalRuleRecordFalse(ri, pi int) bool {
	r := &s.M.C.Rules[ri]
	s.M.Stats.RuleEvals++
	ok := true
	for pj := range r.Preds {
		p := &r.Preds[pj]
		v := s.M.FeatureValue(p.Feat, pi)
		s.M.Stats.PredEvals++
		if p.Eval(v) {
			if s.St.PredFalse[ri][pj].Get(pi) {
				s.St.PredFalse[ri][pj].Clear(pi)
			}
		} else {
			s.St.PredFalse[ri][pj].Set(pi)
			ok = false
		}
	}
	return ok
}

// MemoryBytes reports the approximate footprint of the materialized
// state: memo plus bitmaps (§7.4).
func (s *Session) MemoryBytes() (memo, bitmaps int64) {
	if s.M.Memo != nil {
		memo = s.M.Memo.Bytes()
	}
	if s.St != nil {
		bitmaps = s.St.Bytes()
	}
	return memo, bitmaps
}

// Verify re-evaluates the function from scratch (bypassing all state)
// and reports the first pair whose incremental match mark disagrees.
// Intended for tests.
func (s *Session) Verify() error {
	if err := s.checkState(); err != nil {
		return err
	}
	fresh := &core.Matcher{C: s.M.C, Pairs: s.M.Pairs}
	for pi := range s.M.Pairs {
		if s.dead != nil && s.dead.Get(pi) {
			if s.St.Matched.Get(pi) {
				return fmt.Errorf("incremental: dead pair %d (%v) is marked matched", pi, s.M.Pairs[pi])
			}
			continue
		}
		want := fresh.EvalPair(pi, nil)
		if got := s.St.Matched.Get(pi); got != want {
			return fmt.Errorf("incremental: pair %d (%v): incremental=%v, fresh=%v",
				pi, s.M.Pairs[pi], got, want)
		}
	}
	return nil
}

// VerifyDeep checks, beyond Verify, the three state invariants the
// incremental algorithms rely on (see the package comment) by
// delegating to core.MatchState.Validate, which also checks bitmap
// shapes. It is O(pairs × predicates) similarity computations; intended
// for tests.
func (s *Session) VerifyDeep() error {
	if err := s.Verify(); err != nil {
		return err
	}
	return s.St.ValidateLive(s.M.C, s.M.Pairs, s.dead)
}

// BaseLens returns the table lengths at session creation (or as
// restored from a snapshot); records past them arrived via AddRecords.
func (s *Session) BaseLens() (baseA, baseB int) { return s.baseA, s.baseB }

// DeadPairs returns the tombstoned-pair bitmap, nil when no pair has
// been tombstoned. Callers must treat it as read-only.
func (s *Session) DeadPairs() *bitmap.Bits { return s.dead }

// NumDead returns the number of tombstoned pairs.
func (s *Session) NumDead() int {
	if s.dead == nil {
		return 0
	}
	return s.dead.Count()
}

// LivePairCount returns the number of live (not tombstoned) candidate
// pairs.
func (s *Session) LivePairCount() int { return len(s.M.Pairs) - s.NumDead() }

// RestoreDataState overwrites the session's data-side bookkeeping —
// base table lengths and the tombstoned-pair bitmap — when rebuilding
// a session from a snapshot. dead may be nil; when non-nil its length
// must equal the pair count.
func (s *Session) RestoreDataState(baseA, baseB int, dead *bitmap.Bits) error {
	if baseA < 0 || baseA > s.M.C.A.Len() || baseB < 0 || baseB > s.M.C.B.Len() {
		return fmt.Errorf("incremental: base lengths (%d,%d) out of range for tables (%d,%d)",
			baseA, baseB, s.M.C.A.Len(), s.M.C.B.Len())
	}
	if dead != nil && dead.Len() != len(s.M.Pairs) {
		return fmt.Errorf("incremental: dead bitmap has %d bits for %d pairs", dead.Len(), len(s.M.Pairs))
	}
	s.baseA, s.baseB = baseA, baseB
	s.dead = dead
	return nil
}

// bindPredicate compiles a source-level predicate against the session's
// tables and similarity library.
func (s *Session) bindPredicate(p rule.Predicate) (core.CompiledPred, error) {
	fi, err := s.M.C.BindFeature(p.Feature)
	if err != nil {
		return core.CompiledPred{}, err
	}
	return core.CompiledPred{Feat: fi, Op: p.Op, Threshold: p.Threshold, Key: p.Key()}, nil
}
