// Command emmatch runs rule-based entity matching end to end from
// files: two CSV tables, a DSL rule file, a blocking attribute — and
// writes the matched pairs as CSV. It is the batch (non-interactive)
// entry point; use emdebug for the interactive loop and emserve for
// the HTTP debug service.
//
// Usage:
//
//	emmatch -a tableA.csv -b tableB.csv -rules rules.dsl -block category -out matches.csv
//	emmatch -a a.csv -b b.csv -rules r.dsl -block zip -order alg6 -parallel 4 -stats
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"rulematch/internal/bitmap"
	"rulematch/internal/cliflags"
	"rulematch/internal/core"
	"rulematch/internal/incremental"
	"rulematch/internal/persist"
	"rulematch/internal/quality"
	"rulematch/internal/sim"
)

// options groups the shared flag blocks (cliflags) with the flags only
// emmatch has: output path, snapshot path, stats.
type options struct {
	data cliflags.Data
	eng  cliflags.Engine
	ord  cliflags.Ordering
	snap cliflags.Snapshot
	out  string
	save string
	stat bool
}

func main() {
	o := options{eng: *cliflags.NewEngine(), ord: *cliflags.NewOrdering(), snap: *cliflags.NewSnapshot(), out: "-"}
	fs := flag.CommandLine
	o.data.Register(fs)
	o.eng.Register(fs)
	o.eng.RegisterCaches(fs)
	o.ord.Register(fs)
	o.snap.Register(fs)
	fs.StringVar(&o.out, "out", o.out, "output CSV of matched id pairs ('-' = stdout)")
	fs.StringVar(&o.save, "save", "", "snapshot the materialized session to this file for emdebug/emserve")
	fs.BoolVar(&o.stat, "stats", false, "print work counters to stderr")
	flag.Parse()
	if err := run(o, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "emmatch:", err)
		os.Exit(1)
	}
}

func run(o options, diag io.Writer) error {
	in, err := o.data.Load()
	if err != nil {
		return err
	}
	c, err := core.Compile(in.Function, sim.Standard(), in.A, in.B)
	if err != nil {
		return err
	}
	cfg := o.eng.Config()
	// The profile cache is set before ordering so estimation samples
	// run on the same profiles matching will.
	c.SetProfileCache(cfg.ProfileCache)
	orderTime, err := o.ord.Apply(c, in.Pairs)
	if err != nil {
		return err
	}

	var (
		m       *core.Matcher
		matched *bitmap.Bits
		sess    *incremental.Session
	)
	start := time.Now()
	if o.save != "" {
		// The snapshot path materializes the full incremental state
		// (sharded across workers when -parallel != 1) so emdebug and
		// emserve can resume from a warm session.
		sess = incremental.NewSessionConfig(c, in.Pairs, cfg)
		// Carry the blocker so resumed sessions accept record appends.
		sess.Blocker = in.Blocker
		if o.eng.Parallel != 1 {
			sess.RunFullParallel(o.eng.Parallel)
		} else {
			sess.RunFull()
		}
		m = sess.M
		matched = sess.St.Matched
	} else {
		m = cfg.NewMatcher(c, in.Pairs)
		if o.eng.Parallel != 1 {
			matched = m.MatchParallel(o.eng.Parallel)
		} else {
			// Marks-only run: the output needs the match set, not the
			// materialized per-predicate state.
			matched = m.MatchBits()
		}
	}
	matchTime := time.Since(start)
	if sess != nil {
		if err := persist.SaveFile(o.save, sess, o.snap.Options()...); err != nil {
			return fmt.Errorf("save session: %w", err)
		}
	}

	out := os.Stdout
	if o.out != "-" {
		file, err := os.Create(o.out)
		if err != nil {
			return err
		}
		defer file.Close()
		out = file
	}
	w := csv.NewWriter(out)
	if err := w.Write([]string{"idA", "idB"}); err != nil {
		return err
	}
	count := 0
	for pi, p := range in.Pairs {
		if !matched.Get(pi) {
			continue
		}
		count++
		if err := w.Write([]string{in.A.Records[p.A].ID, in.B.Records[p.B].ID}); err != nil {
			return err
		}
	}
	w.Flush()
	if err := w.Error(); err != nil {
		return err
	}

	if o.stat {
		fmt.Fprintf(diag, "blocking: %d candidate pairs in %v (%s)\n", len(in.Pairs), in.BlockTime.Round(time.Millisecond), in.Blocker.Name())
		fmt.Fprintf(diag, "ordering (%s): %v\n", o.ord.Order, orderTime.Round(time.Millisecond))
		fmt.Fprintf(diag, "matching: %d matches in %v\n", count, matchTime.Round(time.Millisecond))
		fmt.Fprintf(diag, "work: %d feature computes, %d memo hits, %d value-cache hits, %d predicate evals\n",
			m.Stats.FeatureComputes, m.Stats.MemoHits, m.Stats.ValueCacheHits, m.Stats.PredEvals)
		if sess != nil {
			memo, bitmaps := sess.MemoryBytes()
			fmt.Fprintf(diag, "session: %s snapshot saved to %s (%d memo bytes, %d bitmap bytes)\n",
				sess.LastOp.Op, o.save, memo, bitmaps)
		}
	}
	if in.Gold != nil {
		rep := quality.Evaluate(in.Pairs, matched, in.Gold, nil)
		fmt.Fprintf(diag, "quality vs %s: precision %.3f, recall %.3f, F1 %.3f (TP %d, FP %d, FN %d)\n",
			o.data.GoldFile, rep.Precision(), rep.Recall(), rep.F1(),
			rep.TruePositives, rep.FalsePositives, rep.FalseNegatives)
	}
	return nil
}
