package incremental

import (
	"context"
	"testing"

	"rulematch/internal/core"
	"rulematch/internal/rule"
	"rulematch/internal/sim"
	"rulematch/internal/table"
)

// buildSession compiles baseFunc against the fixture tables and starts
// a session with the default configuration (no initial run).
func buildSession(t testing.TB, a, b *table.Table, pairs []table.Pair) *Session {
	t.Helper()
	return NewSession(compileBase(t, a, b), pairs)
}

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

// A cancelled full re-run must leave the previous materialized state
// standing and valid.
func TestRunFullParallelCtxCancelled(t *testing.T) {
	s := newSession(t, baseFunc)
	wantMatches := s.MatchCount()
	statsBefore := s.M.Stats

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if err := s.RunFullParallelCtx(cancelled, 4); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if s.MatchCount() != wantMatches {
		t.Fatal("cancelled run changed the match set")
	}
	if s.M.Stats != statsBefore {
		t.Fatal("cancelled run added stats")
	}
	mustVerify(t, s, "after cancelled full run")

	// And a live context still works, byte-identically to serial.
	if err := s.RunFullParallelCtx(context.Background(), 4); err != nil {
		t.Fatal(err)
	}
	if s.MatchCount() != wantMatches {
		t.Fatal("parallel re-run changed the match set")
	}
	mustVerify(t, s, "after live full run")
}

// A cancelled sweep must leave the session untouched (thresholds,
// memo, stats) and still valid; an uncancelled ctx sweep must agree
// with the serial sweep.
func TestSweepThresholdParallelCtx(t *testing.T) {
	s := newSession(t, baseFunc)
	thresholds := DefaultSweep(9)
	want, err := s.SweepThreshold(0, 0, thresholds)
	if err != nil {
		t.Fatal(err)
	}

	got, err := s.SweepThresholdParallelCtx(context.Background(), 0, 0, thresholds, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if !got[i].Matched.Equal(want[i].Matched) {
			t.Fatalf("ctx sweep point %d differs from serial", i)
		}
	}

	thrBefore := s.M.C.Rules[0].Preds[0].Threshold
	statsBefore := s.M.Stats
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.SweepThresholdParallelCtx(cancelled, 0, 0, thresholds, 3); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if s.M.C.Rules[0].Preds[0].Threshold != thrBefore {
		t.Fatal("cancelled sweep moved a live threshold")
	}
	if s.M.Stats != statsBefore {
		t.Fatal("cancelled sweep added stats")
	}
	mustVerify(t, s, "after cancelled sweep")
}

// Session.Run uses the worker count configured through core.Config.
func TestSessionRunUsesConfiguredWorkers(t *testing.T) {
	a, b, pairs := fixture(t)
	cfg := core.DefaultConfig()
	cfg.CheckCacheFirst = true
	cfg.Workers = 0 // GOMAXPROCS
	s := NewSessionConfig(compileBase(t, a, b), pairs, cfg)
	if err := s.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	mustVerify(t, s, "after Run with GOMAXPROCS workers")

	ref := buildSession(t, a, b, pairs)
	ref.RunFull()
	if s.MatchCount() != ref.MatchCount() {
		t.Fatalf("Run matches %d, serial %d", s.MatchCount(), ref.MatchCount())
	}
	if !s.St.Equal(ref.St) {
		t.Fatal("Run state differs from serial materialization")
	}
}
