package incremental

import (
	"context"
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
