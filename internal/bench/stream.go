package bench

import (
	"fmt"
	"runtime"
	"time"

	"rulematch/internal/core"
	"rulematch/internal/incremental"
	"rulematch/internal/rule"
	"rulematch/internal/table"
)

// StreamConfig shapes the streaming-append experiment.
type StreamConfig struct {
	// Batches is how many append batches to stream (default 10).
	Batches int
	// BatchSize is records per batch (default 20).
	BatchSize int
}

// corpusFreeRules returns the task's rules that use no
// corpus-dependent feature. The TF-IDF family freezes document
// frequencies at compile time, so a streamed session and a cold compile
// over the final tables legitimately disagree on them (see
// internal/incremental/recops.go); streaming over the other rules keeps
// the cold cross-check exact.
func corpusFreeRules(task *Task) ([]rule.Rule, error) {
	rules := make([]rule.Rule, 0, len(task.Rules))
	for _, r := range task.Rules {
		ok := true
		for _, p := range r.Preds {
			needs, err := task.Lib.NeedsCorpus(p.Feature.Sim)
			if err != nil {
				return nil, err
			}
			ok = ok && !needs
		}
		if ok {
			rules = append(rules, r)
		}
	}
	if len(rules) == 0 {
		return nil, fmt.Errorf("bench: every rule of %s uses corpus-dependent features; cannot stream", task.DS.Name)
	}
	return rules, nil
}

// Stream measures data-side incrementality: a session is built over
// table A and a truncated table B, then the held-out B records are
// streamed back in as append batches. Each append blocks only the new
// records (delta blocking), grows the pair dimension in place and
// evaluates only the delta pairs — the experiment reports rows/sec,
// pairs evaluated per append and allocations per appended row, then
// cross-checks the final match set against a cold run over the full
// tables.
func Stream(task *Task, cfg StreamConfig) (*Table, error) {
	if cfg.Batches <= 0 {
		cfg.Batches = 10
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 20
	}
	ds := task.DS
	blocker := ds.Blocker()
	if blocker == nil {
		return nil, fmt.Errorf("bench: dataset %s has no block attribute", ds.Name)
	}
	holdout := cfg.Batches * cfg.BatchSize
	if holdout >= ds.B.Len() {
		return nil, fmt.Errorf("bench: holdout %d >= table B size %d; lower -trials or raise -scale", holdout, ds.B.Len())
	}
	cut := ds.B.Len() - holdout

	rules, err := corpusFreeRules(task)
	if err != nil {
		return nil, err
	}
	dropped := len(task.Rules) - len(rules)

	// Private base copy of B: the session appends to it in place.
	baseB, err := table.New(ds.B.Name, ds.B.Attrs)
	if err != nil {
		return nil, err
	}
	for _, r := range ds.B.Records[:cut] {
		if _, err := baseB.AppendRecord(r); err != nil {
			return nil, err
		}
	}
	f := rule.Function{Rules: rules}
	c, err := core.Compile(f, task.Lib, ds.A, baseB)
	if err != nil {
		return nil, err
	}
	pairs, err := blocker.Pairs(ds.A, baseB)
	if err != nil {
		return nil, err
	}
	sess := incremental.NewSession(c, pairs)
	sess.Blocker = blocker
	coldBase, err := timeRun(sess)
	if err != nil {
		return nil, err
	}

	out := &Table{
		Title: fmt.Sprintf("Streaming appends: %d batches x %d rows into %s (%d base pairs)",
			cfg.Batches, cfg.BatchSize, ds.Name, len(pairs)),
		Header: []string{"batch", "ms", "pairs added", "pairs evaluated"},
	}

	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	var streamTotal time.Duration
	rows, pairsAdded := 0, 0
	for bi := 0; bi < cfg.Batches; bi++ {
		lo := cut + bi*cfg.BatchSize
		recs := make([]table.Record, cfg.BatchSize)
		copy(recs, ds.B.Records[lo:lo+cfg.BatchSize])
		d := timeIt(func() { err = sess.AddRecords(nil, recs) })
		if err != nil {
			return nil, err
		}
		streamTotal += d
		rows += cfg.BatchSize
		pairsAdded += sess.LastOp.PairsAdded
		out.AddRow(fmt.Sprint(bi+1), ms(d),
			fmt.Sprint(sess.LastOp.PairsAdded), fmt.Sprint(sess.LastOp.PairsExamined))
	}
	runtime.ReadMemStats(&m1)
	allocsPerRow := float64(m1.Mallocs-m0.Mallocs) / float64(rows)

	// Cold cross-check: full tables, blocked and evaluated from scratch.
	cFull, err := core.Compile(f, task.Lib, ds.A, ds.B)
	if err != nil {
		return nil, err
	}
	fullPairs, err := blocker.Pairs(ds.A, ds.B)
	if err != nil {
		return nil, err
	}
	cold := incremental.NewSession(cFull, fullPairs)
	coldFull, err := timeRun(cold)
	if err != nil {
		return nil, err
	}
	if sess.MatchCount() != cold.MatchCount() {
		return nil, fmt.Errorf("bench: streamed session found %d matches, cold run %d",
			sess.MatchCount(), cold.MatchCount())
	}
	if err := sess.VerifyDeep(); err != nil {
		return nil, err
	}

	rowsPerSec := float64(rows) / streamTotal.Seconds()
	out.Notes = append(out.Notes,
		fmt.Sprintf("streamed %d rows in %v: %.0f rows/sec, %.1f delta pairs/batch, %.0f allocs/row",
			rows, streamTotal.Round(time.Microsecond), rowsPerSec,
			float64(pairsAdded)/float64(cfg.Batches), allocsPerRow),
		fmt.Sprintf("base run (%d pairs): %v; cold full run (%d pairs): %v; matches agree at %d",
			len(pairs), ms(coldBase)+"ms", len(fullPairs), ms(coldFull)+"ms", cold.MatchCount()),
		"each append evaluated only its delta pairs; the final state passed deep validation")
	if dropped > 0 {
		out.Notes = append(out.Notes, fmt.Sprintf(
			"%d corpus-dependent rules (tf_idf family) excluded: their document frequencies freeze at compile time, so a cold re-compile would not be comparable", dropped))
	}
	return out, nil
}
