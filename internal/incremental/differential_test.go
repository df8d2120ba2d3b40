package incremental

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"rulematch/internal/core"
	"rulematch/internal/rule"
	"rulematch/internal/sim"
	"rulematch/internal/table"
)

// The edit-script differential: seeded scripts of rule edits (and, on
// a blocked session, record appends and deletes) over every operator.
// After each step the session passes VerifyDeep, every predicate's Key
// renders its current threshold, and a sweep of a random predicate at
// {0, 1, current, random} equals, point by point, a from-scratch
// evaluation with the threshold substituted, while leaving the match
// set, every threshold and every Key as they were.

var (
	scriptSims  = []string{"jaro", "jaro_winkler", "levenshtein", "jaccard", "trigram", "soundex", "exact_match"}
	scriptAttrs = []string{"name", "phone", "city"}
	scriptOps   = []rule.Op{rule.Ge, rule.Gt, rule.Le, rule.Lt, rule.Eq}
)

func scriptPredicate(rng *rand.Rand) rule.Predicate {
	attr := scriptAttrs[rng.Intn(len(scriptAttrs))]
	return rule.Predicate{
		Feature:   rule.Feature{Sim: scriptSims[rng.Intn(len(scriptSims))], AttrA: attr, AttrB: attr},
		Op:        scriptOps[rng.Intn(len(scriptOps))],
		Threshold: float64(rng.Intn(11)) / 10,
	}
}

func scriptRule(rng *rand.Rand, name string) rule.Rule {
	r := rule.Rule{Name: name}
	for k := 0; k < 1+rng.Intn(3); k++ {
		r.Preds = append(r.Preds, scriptPredicate(rng))
	}
	return r
}

// scriptEdit applies one random rule edit. Rejections (a rule Compile
// proves always false, a contradicting predicate, moving an equality)
// are part of the script: the session must stay valid through them.
// Removals with valid indices must succeed.
func scriptEdit(t *testing.T, rng *rand.Rand, s *Session, name string) {
	t.Helper()
	n := len(s.M.C.Rules)
	ri := rng.Intn(n)
	np := len(s.M.C.Rules[ri].Preds)
	switch rng.Intn(6) {
	case 0:
		_ = s.AddRule(scriptRule(rng, name))
	case 1:
		if n > 1 {
			if err := s.RemoveRule(ri); err != nil {
				t.Fatalf("%s: remove rule %d: %v", name, ri, err)
			}
		}
	case 2:
		_ = s.AddPredicate(ri, scriptPredicate(rng))
	case 3:
		if np > 1 {
			if err := s.RemovePredicate(ri, rng.Intn(np)); err != nil {
				t.Fatalf("%s: remove predicate of rule %d: %v", name, ri, err)
			}
		}
	default:
		_ = s.SetThreshold(ri, rng.Intn(np), float64(rng.Intn(11))/10)
	}
}

// livePreds copies every compiled predicate: thresholds and keys.
func livePreds(s *Session) [][]core.CompiledPred {
	out := make([][]core.CompiledPred, len(s.M.C.Rules))
	for ri, r := range s.M.C.Rules {
		out[ri] = slices.Clone(r.Preds)
	}
	return out
}

// checkStep verifies the session after one script step and returns the
// number of sweep points it compared.
func checkStep(t *testing.T, rng *rand.Rand, s *Session, where string) int {
	t.Helper()
	if err := s.VerifyDeep(); err != nil {
		t.Fatalf("%s (%s): %v", where, s.LastOp.Op, err)
	}
	preds := livePreds(s)
	for ri, r := range preds {
		for pj, p := range r {
			want := rule.Predicate{Feature: s.M.C.Features[p.Feat].Feature, Op: p.Op, Threshold: p.Threshold}.Key()
			if p.Key != want {
				t.Fatalf("%s: rule %d predicate %d key %q, threshold renders %q", where, ri, pj, p.Key, want)
			}
		}
	}
	ri := rng.Intn(len(preds))
	pj := rng.Intn(len(preds[ri]))
	thresholds := []float64{0, 1, preds[ri][pj].Threshold, rng.Float64()}
	matched := s.St.Matched.Clone()
	points, err := s.SweepThresholdParallelCtx(context.Background(), ri, pj, thresholds, s.M.Workers)
	if err != nil {
		t.Fatalf("%s: sweep rule %d predicate %d: %v", where, ri, pj, err)
	}
	for ti, thr := range thresholds {
		if points[ti].Threshold != thr || !points[ti].Matched.Equal(freshSweepPoint(s, ri, pj, thr)) {
			t.Fatalf("%s: sweep of rule %d predicate %d (%s) at %v differs from a fresh evaluation",
				where, ri, pj, preds[ri][pj].Key, thr)
		}
	}
	if !s.St.Matched.Equal(matched) {
		t.Fatalf("%s: sweep changed the match set", where)
	}
	if !slices.EqualFunc(livePreds(s), preds, slices.Equal) {
		t.Fatalf("%s: sweep changed a threshold or key", where)
	}
	return len(thresholds)
}

// TestEditScriptDifferential runs the rule-edit scripts over the
// full-cross-product fixture, on the configured engine (check-cache-first
// and the profile cache, which the oracles' from-scratch evaluations
// also score through).
func TestEditScriptDifferential(t *testing.T) {
	points := 0
	for trial := 0; trial < 30; trial++ {
		rng := rand.New(rand.NewSource(int64(trial) + 1000))
		var f rule.Function
		for ri := 0; ri < 2+rng.Intn(3); ri++ {
			f.Rules = append(f.Rules, scriptRule(rng, fmt.Sprintf("r%d", ri+1)))
		}
		a, b, pairs := fixture(t)
		c, err := core.Compile(f, sim.Standard(), a, b)
		if err != nil {
			continue // an always-false rule; draw the next script
		}
		s := NewSessionConfig(c, pairs, core.Config{Workers: 1})
		mustRun(t, s)
		for step := 0; step < 120; step++ {
			scriptEdit(t, rng, s, fmt.Sprintf("x%d_%d", trial, step))
			points += checkStep(t, rng, s, fmt.Sprintf("trial %d step %d", trial, step))
		}
	}
	t.Logf("%d sweep points compared", points)
}

// TestEditScriptDifferentialWithRecords interleaves record appends and
// deletes with the rule edits on a blocked session, so sweeps also run
// over tombstoned and reclaimed pairs.
func TestEditScriptDifferentialWithRecords(t *testing.T) {
	points, reclaims := 0, 0
	for trial := 0; trial < 15; trial++ {
		rng := rand.New(rand.NewSource(int64(trial) + 2000))
		a, b := streamTables(t, rng, 12, 14)
		s := blockedSession(t, a, b)
		nextA, nextB := a.Len(), b.Len()
		for step := 0; step < 100; step++ {
			switch step % 4 {
			case 0:
				aRecs := []table.Record{streamRecord(rng, fmt.Sprintf("a%d", nextA))}
				bRecs := []table.Record{streamRecord(rng, fmt.Sprintf("b%d", nextB))}
				nextA++
				nextB++
				if err := s.AddRecords(aRecs, bRecs); err != nil {
					t.Fatal(err)
				}
			case 1:
				var delA, delB []string
				if id, ok := pickLive(rng, a); ok {
					delA = append(delA, id)
				}
				if id, ok := pickLive(rng, b); ok {
					delB = append(delB, id)
				}
				if err := s.DeleteRecords(delA, delB); err != nil {
					t.Fatal(err)
				}
				if s.LastOp.PairsReclaimed > 0 {
					reclaims++
				}
			default:
				scriptEdit(t, rng, s, fmt.Sprintf("x%d_%d", trial, step))
			}
			points += checkStep(t, rng, s, fmt.Sprintf("trial %d step %d", trial, step))
		}
	}
	if reclaims == 0 {
		t.Fatal("no delete reclaimed dead pairs")
	}
	t.Logf("%d sweep points compared, %d reclamations", points, reclaims)
}
