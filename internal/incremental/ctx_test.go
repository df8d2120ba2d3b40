package incremental

import (
	"context"
	"errors"
	"math/rand"
	"sync/atomic"
	"testing"

	"rulematch/internal/core"
	"rulematch/internal/rule"
	"rulematch/internal/sim"
	"rulematch/internal/table"
)

// compileBase compiles baseFunc against the fixture tables.
func compileBase(t testing.TB, a, b *table.Table) *core.Compiled {
	t.Helper()
	f, err := rule.ParseFunction(baseFunc)
	if err != nil {
		t.Fatal(err)
	}
	c, err := core.Compile(f, sim.Standard(), a, b)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// memoBytes is the session memo's footprint.
func memoBytes(s *Session) int64 {
	memo, _ := s.MemoryBytes()
	return memo
}

// A cancelled full re-run must leave the previous materialized state,
// Stats and memo standing and valid, at one worker as at several.
func TestRunFullParallelCtxCancelled(t *testing.T) {
	for _, workers := range []int{1, 4} {
		s := newSession(t, baseFunc)
		s.M.Workers = workers
		stateBefore := s.St
		statsBefore := s.M.Stats
		entries, bytes := s.M.Memo.Entries(), memoBytes(s)

		cancelled, cancel := context.WithCancel(context.Background())
		cancel()
		if err := s.Run(cancelled); err != context.Canceled {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if s.St != stateBefore {
			t.Fatalf("workers=%d: cancelled run replaced the state", workers)
		}
		if s.M.Stats != statsBefore {
			t.Fatalf("workers=%d: cancelled run added stats", workers)
		}
		if s.M.Memo.Entries() != entries || memoBytes(s) != bytes {
			t.Fatalf("workers=%d: cancelled run changed the memo", workers)
		}
		mustVerify(t, s, "after cancelled full run")

		// And a live context still works.
		wantMatches := s.MatchCount()
		mustRun(t, s)
		if s.MatchCount() != wantMatches {
			t.Fatalf("workers=%d: re-run changed the match set", workers)
		}
		mustVerify(t, s, "after live full run")
	}
}

// cancelAtCtx is a context whose Err turns context.Canceled at its
// k-th call (never, for k == 0); calls counts them.
type cancelAtCtx struct {
	context.Context
	k     int64
	calls atomic.Int64
}

func (c *cancelAtCtx) Err() error {
	if n := c.calls.Add(1); c.k > 0 && n >= c.k {
		return context.Canceled
	}
	return nil
}

// A full run cancelled between any two chunks — or at the check after
// the join — returns context.Canceled and leaves the previous state,
// Stats and match count standing and valid, while the memo it shares
// with its workers keeps only exact values. The session has several
// chunks at one worker, where the shard driver checks ctx once before
// the run, once before each chunk and once after the join, so an
// uncancelled run counts the calls to cancel at.
func TestRunCtxCancelledMidRun(t *testing.T) {
	a, b := streamTables(t, rand.New(rand.NewSource(3)), 40, 60)
	var pairs []table.Pair
	for i := 0; i < a.Len(); i++ {
		for j := 0; j < b.Len(); j++ {
			pairs = append(pairs, table.Pair{A: int32(i), B: int32(j)})
		}
	}
	newRun := func() *Session {
		s := NewSession(compileBase(t, a, b), pairs)
		mustRun(t, s)
		// A cold memo, so the cancelled run has values to write.
		s.M.Memo = core.NewArrayMemo(len(pairs))
		return s
	}
	full := newRun()
	counter := &cancelAtCtx{Context: context.Background()}
	if err := full.Run(counter); err != nil {
		t.Fatal(err)
	}
	calls := counter.calls.Load()
	if chunks := calls - 2; chunks < 2 {
		t.Fatalf("fixture: %d pairs make %d chunks at one worker, want at least 2", len(pairs), chunks)
	}
	fullEntries := full.M.Memo.Entries()
	partial := false
	for k := int64(1); k <= calls; k++ {
		s := newRun()
		st, stats, matches := s.St, s.M.Stats, s.MatchCount()
		if err := s.Run(&cancelAtCtx{Context: context.Background(), k: k}); !errors.Is(err, context.Canceled) {
			t.Fatalf("k=%d: err = %v, want context.Canceled", k, err)
		}
		if s.St != st || s.M.Stats != stats || s.MatchCount() != matches {
			t.Fatalf("k=%d: cancelled run changed the state, stats or match count", k)
		}
		if err := s.VerifyDeep(); err != nil {
			t.Fatalf("k=%d: after a cancelled run: %v", k, err)
		}
		for fi := range s.M.C.Features {
			for pi, p := range pairs {
				if v, ok := s.M.Memo.Get(fi, pi); ok && v != s.M.C.ComputeFeature(fi, p) {
					t.Fatalf("k=%d: memo (%d,%d) = %v, want %v", k, fi, pi, v, s.M.C.ComputeFeature(fi, p))
				}
			}
		}
		if n := s.M.Memo.Entries(); n > 0 && n < fullEntries {
			partial = true
		}
	}
	if !partial {
		t.Error("fixture: no run was cancelled with part of the memo written")
	}
}

// A cancelled sweep must leave the session untouched (thresholds,
// memo, stats) and still valid, at one worker as at several; an
// uncancelled sweep must agree with a from-scratch evaluation.
func TestSweepThresholdParallelCtx(t *testing.T) {
	thresholds := DefaultSweep(9)
	for _, workers := range []int{1, 4} {
		s := newSession(t, baseFunc)
		thrBefore := s.M.C.Rules[0].Preds[0].Threshold
		statsBefore := s.M.Stats
		entries, bytes := s.M.Memo.Entries(), memoBytes(s)
		cancelled, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := s.SweepThresholdParallelCtx(cancelled, 0, 0, thresholds, workers); err != context.Canceled {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if s.M.C.Rules[0].Preds[0].Threshold != thrBefore {
			t.Fatalf("workers=%d: cancelled sweep moved a live threshold", workers)
		}
		if s.M.Stats != statsBefore {
			t.Fatalf("workers=%d: cancelled sweep added stats", workers)
		}
		if s.M.Memo.Entries() != entries || memoBytes(s) != bytes {
			t.Fatalf("workers=%d: cancelled sweep changed the memo", workers)
		}
		mustVerify(t, s, "after cancelled sweep")

		got, err := s.SweepThresholdParallelCtx(context.Background(), 0, 0, thresholds, workers)
		if err != nil {
			t.Fatal(err)
		}
		for i, thr := range thresholds {
			if !got[i].Matched.Equal(freshSweepPoint(s, 0, 0, thr)) {
				t.Fatalf("workers=%d: sweep point %d differs from a fresh evaluation", workers, i)
			}
		}
	}
}

// Session.Run uses the worker count configured through core.Config.
func TestSessionRunUsesConfiguredWorkers(t *testing.T) {
	a, b, pairs := fixture(t)
	s := NewSessionConfig(compileBase(t, a, b), pairs, core.Config{Workers: 0}) // GOMAXPROCS
	if err := s.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	mustVerify(t, s, "after Run with GOMAXPROCS workers")

	want := core.NewMatcher(compileBase(t, a, b), pairs).Match()
	if !s.St.Equal(want) {
		t.Fatal("Run state differs from the static-order scalar Match")
	}
}
