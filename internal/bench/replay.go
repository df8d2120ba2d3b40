package bench

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"rulematch/internal/core"
	"rulematch/internal/incremental"
	"rulematch/internal/rule"
)

// ReplayOp is one step of a simulated analyst session.
type ReplayOp struct {
	Kind string
	Dur  time.Duration
}

// ReplayResult aggregates one full simulated debugging session.
type ReplayResult struct {
	Ops []ReplayOp
	// Incremental is the total wall time of the session under the
	// incremental engine (what this library implements).
	Incremental time.Duration
	// FullRerun is the measured total if every iteration instead re-ran
	// the whole function on the warm memo.
	FullRerun time.Duration
	// ColdRerun is the *estimated* total if every iteration re-ran the
	// rudimentary baseline from scratch (one measured rudimentary run
	// multiplied by the iteration count), the workflow the paper's
	// introduction describes analysts suffering today.
	ColdRerun time.Duration
	// IncrementalWork, FullRerunWork and ColdRerunWork are the engine
	// work counters of the three regimes over the whole session
	// (ColdRerunWork is one measured rudimentary run's counters times
	// the iteration count, like ColdRerun). Unlike the wall times they
	// repeat exactly, so tests compare regimes on them.
	IncrementalWork core.Stats
	FullRerunWork   core.Stats
	ColdRerunWork   core.Stats
}

// Replay simulates an analyst debugging session of `steps` edits drawn
// deterministically from the task's mined rule pool: adding rules,
// tightening and relaxing thresholds, adding and removing predicates —
// the Figure 1 loop. It measures the same session under the incremental
// engine and under the full-rerun-per-iteration regime, and estimates
// the from-scratch regime.
func Replay(task *Task, startRules, steps int, seed int64) (*Table, *ReplayResult, error) {
	if startRules <= 0 || startRules > len(task.Rules) {
		startRules = len(task.Rules) / 2
	}
	type op struct {
		kind string
		do   func(s *incremental.Session) error
	}
	rng := rand.New(rand.NewSource(seed))
	pool := task.DS.Domain.FeaturePool()
	script := make([]op, 0, steps)
	nextRule := startRules
	for len(script) < steps {
		switch rng.Intn(5) {
		case 0:
			if nextRule >= len(task.Rules) {
				continue
			}
			r := task.Rules[nextRule]
			nextRule++
			script = append(script, op{kind: "add rule", do: func(s *incremental.Session) error {
				return s.AddRule(r)
			}})
		case 1:
			ri := rng.Intn(startRules)
			delta := float64(1+rng.Intn(3)) / 20
			script = append(script, op{kind: "tighten", do: func(s *incremental.Session) error {
				p := s.M.C.Rules[ri].Preds[0]
				dir := 1.0
				if p.Op.Upper() {
					dir = -1
				}
				err := s.SetThreshold(ri, 0, p.Threshold+dir*delta)
				if err != nil {
					return nil // clipped moves are skipped, like a no-op edit
				}
				return nil
			}})
		case 2:
			ri := rng.Intn(startRules)
			delta := float64(1+rng.Intn(3)) / 20
			script = append(script, op{kind: "relax", do: func(s *incremental.Session) error {
				p := s.M.C.Rules[ri].Preds[0]
				dir := -1.0
				if p.Op.Upper() {
					dir = 1
				}
				if err := s.SetThreshold(ri, 0, p.Threshold+dir*delta); err != nil {
					return nil
				}
				return nil
			}})
		case 3:
			ri := rng.Intn(startRules)
			p := rule.Predicate{Feature: pool[rng.Intn(len(pool))], Op: rule.Ge, Threshold: float64(1+rng.Intn(5)) / 10}
			script = append(script, op{kind: "add predicate", do: func(s *incremental.Session) error {
				return s.AddPredicate(ri, p)
			}})
		default:
			ri := rng.Intn(startRules)
			script = append(script, op{kind: "remove predicate", do: func(s *incremental.Session) error {
				if len(s.M.C.Rules[ri].Preds) < 2 {
					return nil
				}
				return s.RemovePredicate(ri, len(s.M.C.Rules[ri].Preds)-1)
			}})
		}
	}

	runSession := func(incrementalMode bool) (time.Duration, core.Stats, []ReplayOp, error) {
		c, err := task.CompileSubset(startRules)
		if err != nil {
			return 0, core.Stats{}, nil, err
		}
		s := incremental.NewSession(c, task.Pairs())
		var ops []ReplayOp
		total, err := timeRun(s)
		if err != nil {
			return 0, core.Stats{}, nil, err
		}
		for _, o := range script {
			var d time.Duration
			var opErr error
			if incrementalMode {
				d = timeIt(func() { opErr = o.do(s) })
			} else {
				d = timeIt(func() {
					if opErr = o.do(s); opErr == nil {
						opErr = s.Run(context.TODO())
					}
				})
			}
			if opErr != nil {
				return 0, core.Stats{}, nil, fmt.Errorf("replay %s: %w", o.kind, opErr)
			}
			total += d
			ops = append(ops, ReplayOp{Kind: o.kind, Dur: d})
		}
		if err := s.Verify(); err != nil {
			return 0, core.Stats{}, nil, fmt.Errorf("replay diverged: %w", err)
		}
		return total, s.M.Stats, ops, nil
	}

	incTotal, incWork, ops, err := runSession(true)
	if err != nil {
		return nil, nil, err
	}
	fullTotal, fullWork, _, err := runSession(false)
	if err != nil {
		return nil, nil, err
	}
	// Cold regime estimate: one measured rudimentary run × iterations.
	cCold, err := task.CompileSubset(startRules)
	if err != nil {
		return nil, nil, err
	}
	m := &core.Matcher{C: cCold, Pairs: task.Pairs()}
	oneCold := timeIt(func() { m.MatchRudimentary() })
	coldTotal := time.Duration(int64(oneCold) * int64(steps+1))
	var coldWork core.Stats
	for i := 0; i <= steps; i++ {
		coldWork.Add(m.Stats)
	}

	res := &ReplayResult{Ops: ops, Incremental: incTotal, FullRerun: fullTotal, ColdRerun: coldTotal,
		IncrementalWork: incWork, FullRerunWork: fullWork, ColdRerunWork: coldWork}
	out := &Table{
		Title: fmt.Sprintf("Analyst session replay: %d edits from %d rules, %s",
			steps, startRules, task.DS.Name),
		Header: []string{"Regime", "total ms", "vs incremental", "pred evals"},
	}
	out.AddRow("incremental (this library)", ms(res.Incremental), "1.0x",
		fmt.Sprint(res.IncrementalWork.PredEvals))
	out.AddRow("full re-run on warm memo", ms(res.FullRerun),
		fmt.Sprintf("%.1fx", float64(res.FullRerun)/float64(res.Incremental)),
		fmt.Sprint(res.FullRerunWork.PredEvals))
	out.AddRow("rudimentary re-run each edit (est.)", ms(res.ColdRerun),
		fmt.Sprintf("%.1fx", float64(res.ColdRerun)/float64(res.Incremental)),
		fmt.Sprint(res.ColdRerunWork.PredEvals))
	out.Notes = append(out.Notes,
		"the session script (adds, tightens, relaxes, predicate edits) is identical across regimes")
	return out, res, nil
}
