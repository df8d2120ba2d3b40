// Integration tests exercising the whole pipeline end to end:
// generate → block → mine rules → order → match → incremental edits →
// persist → restore, cross-checking against from-scratch evaluation at
// every stage.
package rulematch

import (
	"bytes"
	"context"
	"math/rand"
	"testing"

	"rulematch/internal/core"
	"rulematch/internal/costmodel"
	"rulematch/internal/datagen"
	"rulematch/internal/estimate"
	"rulematch/internal/incremental"
	"rulematch/internal/order"
	"rulematch/internal/persist"
	"rulematch/internal/quality"
	"rulematch/internal/rule"
	"rulematch/internal/sim"
	"rulematch/internal/table"
)

func TestEndToEndPipeline(t *testing.T) {
	task := benchTask(t) // shared products task from bench_test.go
	c, err := task.CompileSubset(30)
	if err != nil {
		t.Fatal(err)
	}
	// Order with Algorithm 6 using sampled estimates.
	est := estimate.New(c, task.Pairs(), 0.1, 7)
	order.GreedyReduction(c, costmodel.New(c, est))

	// Match with every strategy and cross-check.
	want := (&core.Matcher{C: c, Pairs: task.Pairs()}).MatchRudimentary()
	dm := core.NewMatcher(c, task.Pairs())
	dm.CheckCacheFirst = true
	st := dm.Match()
	parBits, err := core.NewMatcher(c, task.Pairs()).MatchParallelCtx(context.Background(), 4)
	if err != nil {
		t.Fatal(err)
	}
	adaptive := core.NewMatcher(c, task.Pairs())
	adaptiveBits := order.MatchAdaptive(adaptive, costmodel.New(c, est), 0)
	for pi := range task.Pairs() {
		if st.Matched.Get(pi) != want.Get(pi) {
			t.Fatalf("dm disagrees at pair %d", pi)
		}
		if parBits.Get(pi) != want.Get(pi) {
			t.Fatalf("parallel disagrees at pair %d", pi)
		}
		if adaptiveBits.Get(pi) != want.Get(pi) {
			t.Fatalf("adaptive disagrees at pair %d", pi)
		}
	}

	// Quality against gold is meaningfully better than trivial.
	rep := quality.Evaluate(task.Pairs(), st.Matched, task.DS.Gold, nil)
	if rep.Recall() < 0.5 {
		t.Errorf("mined 30-rule recall = %.3f", rep.Recall())
	}
}

// TestIncrementalSessionOnRealTask runs a long random edit sequence on
// mined rules over the generated products data, verifying the
// incremental state against from-scratch evaluation after every step.
func TestIncrementalSessionOnRealTask(t *testing.T) {
	task := benchTask(t)
	c, err := task.CompileSubset(15)
	if err != nil {
		t.Fatal(err)
	}
	s := incremental.NewSession(c, task.Pairs())
	mustRun(t, s)
	if err := s.Verify(); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(99))
	pool := task.DS.Domain.FeaturePool()
	steps := 40
	if testing.Short() {
		steps = 10
	}
	for step := 0; step < steps; step++ {
		nRules := len(s.M.C.Rules)
		switch rng.Intn(5) {
		case 0:
			if len(task.Rules) > 15+step {
				if err := s.AddRule(task.Rules[15+step]); err != nil {
					t.Fatal(err)
				}
			}
		case 1:
			if nRules > 5 {
				if err := s.RemoveRule(rng.Intn(nRules)); err != nil {
					t.Fatal(err)
				}
			}
		case 2:
			p := rule.Predicate{Feature: pool[rng.Intn(len(pool))], Op: rule.Ge, Threshold: float64(1+rng.Intn(9)) / 10}
			if err := s.AddPredicate(rng.Intn(nRules), p); err != nil {
				t.Fatal(err)
			}
		case 3:
			ri := rng.Intn(nRules)
			if np := len(s.M.C.Rules[ri].Preds); np > 1 {
				if err := s.RemovePredicate(ri, rng.Intn(np)); err != nil {
					t.Fatal(err)
				}
			}
		default:
			ri := rng.Intn(nRules)
			pj := rng.Intn(len(s.M.C.Rules[ri].Preds))
			if s.M.C.Rules[ri].Preds[pj].Op == rule.Eq {
				continue
			}
			delta := float64(1+rng.Intn(3)) / 20
			if rng.Intn(2) == 0 {
				delta = -delta
			}
			if err := s.SetThreshold(ri, pj, s.M.C.Rules[ri].Preds[pj].Threshold+delta); err != nil {
				continue // invalid direction/no-op rejections are fine
			}
		}
		if err := s.Verify(); err != nil {
			t.Fatalf("step %d (%s): %v", step, s.LastOp.Op, err)
		}
		if step%10 == 9 {
			if err := s.VerifyDeep(); err != nil {
				t.Fatalf("step %d (%s): deep: %v", step, s.LastOp.Op, err)
			}
		}
	}
}

// TestPersistOnRealTask snapshots a mined-rule session mid-debugging
// and checks the restored session is byte-equivalent in behaviour.
func TestPersistOnRealTask(t *testing.T) {
	task := benchTask(t)
	c, err := task.CompileSubset(10)
	if err != nil {
		t.Fatal(err)
	}
	s := incremental.NewSession(c, task.Pairs())
	mustRun(t, s)
	var buf bytes.Buffer
	if err := persist.Save(&buf, s); err != nil {
		t.Fatal(err)
	}
	got, err := persist.Load(&buf, sim.Standard(), task.DS.A, task.DS.B)
	if err != nil {
		t.Fatal(err)
	}
	if !got.St.Matched.Equal(s.St.Matched) {
		t.Fatal("restored match marks differ")
	}
	if err := got.Verify(); err != nil {
		t.Fatal(err)
	}
	// Continue debugging on the restored session.
	if err := got.AddRule(task.Rules[10]); err != nil {
		t.Fatal(err)
	}
	if err := got.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestDatasetRoundTripThroughCSV writes a generated dataset to CSV,
// reads it back, and confirms matching produces identical results.
func TestDatasetRoundTripThroughCSV(t *testing.T) {
	cfg := datagen.StandardConfig(datagen.Books(), 0.02)
	ds, err := datagen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := ds.A.WriteCSVFile(dir + "/a.csv"); err != nil {
		t.Fatal(err)
	}
	if err := ds.B.WriteCSVFile(dir + "/b.csv"); err != nil {
		t.Fatal(err)
	}
	a2, err := table.ReadCSVFile(dir+"/a.csv", ds.A.Name)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := table.ReadCSVFile(dir+"/b.csv", ds.B.Name)
	if err != nil {
		t.Fatal(err)
	}
	ds2, err := datagen.FromTables(ds.Name, a2, b2, ds.Domain.BlockAttr(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds2.Pairs) != len(ds.Pairs) {
		t.Fatalf("blocking after round trip: %d pairs, want %d", len(ds2.Pairs), len(ds.Pairs))
	}
	f, err := rule.ParseFunction(ds.Domain.SampleRules())
	if err != nil {
		t.Fatal(err)
	}
	c1, err := core.Compile(f, sim.Standard(), ds.A, ds.B)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := core.Compile(f, sim.Standard(), a2, b2)
	if err != nil {
		t.Fatal(err)
	}
	m1 := core.NewMatcher(c1, ds.Pairs)
	m2 := core.NewMatcher(c2, ds2.Pairs)
	st1, st2 := m1.Match(), m2.Match()
	if !st1.Matched.Equal(st2.Matched) {
		t.Error("matching differs after CSV round trip")
	}
}
