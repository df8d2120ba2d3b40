package main

import (
	"bytes"
	"context"
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"rulematch/internal/bench"
	"rulematch/internal/core"
	"rulematch/internal/datagen"
	"rulematch/internal/explain"
	"rulematch/internal/incremental"
	"rulematch/internal/persist"
	"rulematch/internal/quality"
	"rulematch/internal/rule"
	"rulematch/internal/sim"
	"rulematch/internal/table"
)

// debugger holds one interactive debugging session.
type debugger struct {
	out  io.Writer
	task *bench.Task
	sess *incremental.Session
	// cfg is the engine configuration (the -parallel flag) every
	// session is built or reconfigured with, including the ones undo
	// and restore load from snapshots.
	cfg  core.Config
	last time.Duration // duration of the most recent state-changing op
	undo [][]byte      // session snapshots, most recent last
	// saveOpts configures how the save command writes snapshots
	// (-fsync on the command line).
	saveOpts []persist.SaveOption
}

// maxUndo bounds the in-memory undo stack.
const maxUndo = 10

// checkpoint pushes a snapshot of the current session for undo; it is
// called before every mutating command.
func (d *debugger) checkpoint() {
	if d.sess == nil || d.sess.St == nil {
		return
	}
	var buf bytes.Buffer
	if err := persist.Save(&buf, d.sess); err != nil {
		return // undo is best-effort; the op itself proceeds
	}
	d.undo = append(d.undo, buf.Bytes())
	if len(d.undo) > maxUndo {
		d.undo = d.undo[len(d.undo)-maxUndo:]
	}
}

// undoLast restores the most recent checkpoint.
func (d *debugger) undoLast() error {
	if len(d.undo) == 0 {
		return fmt.Errorf("nothing to undo")
	}
	snap := d.undo[len(d.undo)-1]
	d.undo = d.undo[:len(d.undo)-1]
	s, err := persist.Load(bytes.NewReader(snap), d.task.Lib, d.task.DS.A, d.task.DS.B)
	if err != nil {
		return fmt.Errorf("undo failed: %w", err)
	}
	s.Reconfigure(d.cfg)
	d.sess = s
	fmt.Fprintf(d.out, "undone: back to %d rules, %d matches\n", len(s.M.C.Rules), s.MatchCount())
	return nil
}

func newDebugger(out io.Writer, cfg core.Config) *debugger {
	return &debugger{out: out, cfg: cfg}
}

// runFull bootstraps (or re-runs) the session on its configured
// workers, recording the run's duration.
func (d *debugger) runFull() error {
	var err error
	d.last = timeOp(func() { err = d.sess.Run(context.TODO()) })
	return err
}

// load generates the synthetic dataset and starts a session with either
// the domain's hand-written sample rules or the mined pool.
func (d *debugger) load(dataset string, scale float64, mined bool) error {
	var dom *datagen.Domain
	for _, dd := range datagen.AllDomains() {
		if dd.Name() == dataset {
			dom = dd
		}
	}
	if dom == nil {
		return fmt.Errorf("unknown dataset %q", dataset)
	}
	start := time.Now()
	task, err := bench.PrepareTask(dom, scale, 0)
	if err != nil {
		return err
	}
	d.task = task
	var f rule.Function
	if mined {
		f = rule.Function{Rules: task.Rules}
	} else {
		f, err = rule.ParseFunction(dom.SampleRules())
		if err != nil {
			return err
		}
	}
	c, err := core.Compile(f, task.Lib, task.DS.A, task.DS.B)
	if err != nil {
		return err
	}
	d.sess = incremental.NewSessionConfig(c, task.Pairs(), d.cfg)
	d.sess.Blocker = task.DS.Blocker()
	if err := d.runFull(); err != nil {
		return err
	}
	fmt.Fprintf(d.out, "loaded %s: %d + %d records, %d candidate pairs, %d gold matches (prepared in %v)\n",
		dataset, task.DS.A.Len(), task.DS.B.Len(), len(task.Pairs()), len(task.DS.Gold),
		time.Since(start).Round(time.Millisecond))
	fmt.Fprintf(d.out, "initial run%s: %d matches in %v with %d rules\n",
		d.workersTag(), d.sess.MatchCount(), d.last.Round(time.Microsecond), len(c.Rules))
	return nil
}

// workersTag annotates run reports when the session has more than one
// worker.
func (d *debugger) workersTag() string {
	w := core.NormalizeWorkers(d.sess.M.Workers)
	if w == 1 {
		return ""
	}
	return fmt.Sprintf(" (%d workers)", w)
}

func timeOp(fn func()) time.Duration {
	start := time.Now()
	fn()
	return time.Since(start)
}

// loadCSV starts a session from an emgen-style task directory:
// tableA.csv, tableB.csv, rules.dsl and gold.csv, blocking on the given
// attribute.
func (d *debugger) loadCSV(dir, blockAttr string) error {
	a, err := table.ReadCSVFile(filepath.Join(dir, "tableA.csv"), "A")
	if err != nil {
		return err
	}
	b, err := table.ReadCSVFile(filepath.Join(dir, "tableB.csv"), "B")
	if err != nil {
		return err
	}
	gold, err := readGold(filepath.Join(dir, "gold.csv"), a, b)
	if err != nil {
		return err
	}
	src, err := os.ReadFile(filepath.Join(dir, "rules.dsl"))
	if err != nil {
		return err
	}
	f, err := rule.ParseFunction(string(src))
	if err != nil {
		return err
	}
	ds, err := datagen.FromTables(filepath.Base(dir), a, b, blockAttr, gold)
	if err != nil {
		return err
	}
	lib := sim.Standard()
	c, err := core.Compile(f, lib, a, b)
	if err != nil {
		return err
	}
	d.task = &bench.Task{DS: ds, Lib: lib, Rules: f.Rules}
	d.sess = incremental.NewSessionConfig(c, ds.Pairs, d.cfg)
	d.sess.Blocker = ds.Blocker()
	if err := d.runFull(); err != nil {
		return err
	}
	fmt.Fprintf(d.out, "loaded %s: %d + %d records, %d candidate pairs, %d gold matches\n",
		dir, a.Len(), b.Len(), len(ds.Pairs), len(ds.Gold))
	fmt.Fprintf(d.out, "initial run%s: %d matches in %v with %d rules\n",
		d.workersTag(), d.sess.MatchCount(), d.last.Round(time.Microsecond), len(c.Rules))
	return nil
}

// readGold parses an emgen gold.csv ("idA,idB" header) into pair keys.
func readGold(path string, a, b *table.Table) (map[uint64]bool, error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil // labels are optional
		}
		return nil, err
	}
	defer f.Close()
	cr := csv.NewReader(f)
	rows, err := cr.ReadAll()
	if err != nil {
		return nil, err
	}
	gold := make(map[uint64]bool)
	for i, row := range rows {
		if i == 0 || len(row) != 2 {
			continue // header / ragged
		}
		ai, okA := a.RecordByID(row[0])
		bi, okB := b.RecordByID(row[1])
		if !okA || !okB {
			return nil, fmt.Errorf("gold.csv line %d references unknown record (%s, %s)", i+1, row[0], row[1])
		}
		gold[table.Pair{A: int32(ai), B: int32(bi)}.PairKey()] = true
	}
	return gold, nil
}

// exec runs one command line; it returns quit=true for exit commands.
func (d *debugger) exec(line string) (quit bool, err error) {
	fields := strings.Fields(line)
	if len(fields) == 0 || strings.HasPrefix(fields[0], "#") {
		return false, nil
	}
	cmd := fields[0]
	rest := strings.TrimSpace(strings.TrimPrefix(line, cmd))
	switch cmd {
	case "quit", "exit", "q":
		return true, nil
	case "help":
		d.help()
		return false, nil
	case "load":
		scale := 0.02
		mined := false
		if len(fields) < 2 {
			return false, fmt.Errorf("usage: load <dataset> [scale] [mined]")
		}
		if len(fields) >= 3 {
			if scale, err = strconv.ParseFloat(fields[2], 64); err != nil {
				return false, fmt.Errorf("bad scale %q", fields[2])
			}
		}
		if len(fields) >= 4 && fields[3] == "mined" {
			mined = true
		}
		return false, d.load(fields[1], scale, mined)
	case "loadcsv":
		if len(fields) != 3 {
			return false, fmt.Errorf("usage: loadcsv <dir> <blockattr>")
		}
		return false, d.loadCSV(fields[1], fields[2])
	}
	if d.sess == nil {
		return false, fmt.Errorf("no session; use: load <dataset> [scale] [mined]")
	}
	switch cmd {
	case "rules":
		d.printRules()
	case "add":
		d.checkpoint()
		return false, d.cmdAdd(fields, rest)
	case "drop":
		d.checkpoint()
		return false, d.cmdDrop(fields)
	case "set":
		d.checkpoint()
		return false, d.cmdSet(fields)
	case "undo":
		return false, d.undoLast()
	case "lint":
		findings := rule.Lint(d.sess.M.C.Function())
		if len(findings) == 0 {
			fmt.Fprintln(d.out, "no issues: no duplicate, subsumed or always-false rules")
		}
		for _, fd := range findings {
			fmt.Fprintln(d.out, fd.String())
		}
	case "run":
		if err := d.runFull(); err != nil {
			return false, err
		}
		fmt.Fprintf(d.out, "full re-run%s: %d matches in %v\n",
			d.workersTag(), d.sess.MatchCount(), d.last.Round(time.Microsecond))
	case "quality":
		d.printQuality()
	case "stats":
		d.printStats()
	case "matches":
		d.printPairs(fields, "matches")
	case "misses":
		d.printPairs(fields, "misses")
	case "falsepos":
		d.printPairs(fields, "falsepos")
	case "explain":
		if len(fields) != 3 {
			return false, fmt.Errorf("usage: explain <idA> <idB>")
		}
		return false, d.explain(fields[1], fields[2])
	case "suggest":
		if len(fields) != 3 {
			return false, fmt.Errorf("usage: suggest <idA> <idB>")
		}
		return false, d.suggest(fields[1], fields[2])
	case "sweep":
		if len(fields) != 3 {
			return false, fmt.Errorf("usage: sweep <ruleIdx> <predIdx>")
		}
		ri, err1 := strconv.Atoi(fields[1])
		pj, err2 := strconv.Atoi(fields[2])
		if err1 != nil || err2 != nil {
			return false, fmt.Errorf("usage: sweep <ruleIdx> <predIdx>")
		}
		return false, d.sweep(ri, pj)
	case "save":
		if len(fields) != 2 {
			return false, fmt.Errorf("usage: save <file>")
		}
		return false, d.save(fields[1])
	case "restore":
		if len(fields) != 2 {
			return false, fmt.Errorf("usage: restore <file>")
		}
		return false, d.restore(fields[1])
	case "time":
		fmt.Fprintf(d.out, "last operation: %v\n", d.last.Round(time.Microsecond))
	default:
		return false, fmt.Errorf("unknown command %q (try 'help')", cmd)
	}
	return false, nil
}

func (d *debugger) help() {
	fmt.Fprint(d.out, `commands:
  load <dataset> [scale] [mined]   generate data and start a session
  loadcsv <dir> <blockattr>        load an emgen task directory
  rules                            list rules with indices
  add rule <dsl>                   e.g. add rule r9: jaccard(title, title) >= 0.6
  add pred <ruleIdx> <dsl>         e.g. add pred 0 jaro(brand, brand) >= 0.8
  drop rule <ruleIdx>
  drop pred <ruleIdx> <predIdx>
  set <ruleIdx> <predIdx> <thr>    move a threshold (tighten or relax)
  undo                             revert the last rule edit
  lint                             flag duplicate / subsumed / dead rules
  run                              full re-run with the warm memo
  quality                          precision / recall / F1 vs gold
  matches|misses|falsepos [n]      inspect pairs (default 5)
  explain <idA> <idB>              per-predicate evaluation of one pair
  suggest <idA> <idB>              threshold edits that would cover the pair
  sweep <ruleIdx> <predIdx>        what-if quality across thresholds (memo-powered)
  save <file> | restore <file>     persist / resume the session
  stats                            engine counters and memory
  time                             duration of the last operation
  quit
`)
}

func (d *debugger) printRules() {
	f := d.sess.M.C.Function()
	if len(f.Rules) == 0 {
		fmt.Fprintln(d.out, "(no rules)")
		return
	}
	names := make([]string, len(f.Rules))
	for i, r := range f.Rules {
		names[i] = r.Name
	}
	perRule := quality.PerRule(d.task.Pairs(), names, d.sess.St.RuleTrue, d.task.DS.Gold)
	for i, r := range f.Rules {
		q := perRule[i]
		fmt.Fprintf(d.out, "[%d] %s\n    owns %d pairs (%d gold, %d non-gold, precision %.2f)\n",
			i, r.String(), q.Owned, q.OwnedTP, q.OwnedFP, q.Precision())
	}
}

// sweep prints the what-if match counts and quality across candidate
// thresholds for one predicate, powered by the warm memo.
func (d *debugger) sweep(ri, pj int) error {
	points, err := d.sess.SweepThresholdParallelCtx(context.TODO(), ri, pj, incremental.DefaultSweep(9), d.sess.M.Workers)
	if err != nil {
		return err
	}
	p := d.sess.M.C.Rules[ri].Preds[pj]
	fmt.Fprintf(d.out, "sweep %s (currently %s %g):\n",
		d.sess.M.C.Features[p.Feat].Key, p.Op, p.Threshold)
	for _, pt := range points {
		rep := quality.Evaluate(d.task.Pairs(), pt.Matched, d.task.DS.Gold, nil)
		fmt.Fprintf(d.out, "  thr %.1f: %4d matches  P=%.3f R=%.3f F1=%.3f\n",
			pt.Threshold, pt.Matched.Count(), rep.Precision(), rep.Recall(), rep.F1())
	}
	return nil
}

func (d *debugger) report(op string) {
	r := d.sess.LastOp
	fmt.Fprintf(d.out, "%s: %v, examined %d pairs, computed %d features (%d memo hits); %d matches now\n",
		op, d.last.Round(time.Microsecond), r.PairsExamined, r.Stats.FeatureComputes, r.Stats.MemoHits,
		d.sess.MatchCount())
}

func (d *debugger) cmdAdd(fields []string, rest string) error {
	if len(fields) < 3 {
		return fmt.Errorf("usage: add rule <dsl> | add pred <ruleIdx> <dsl>")
	}
	switch fields[1] {
	case "rule":
		src := strings.TrimSpace(strings.TrimPrefix(rest, "rule"))
		r, err := rule.ParseRule(src)
		if err != nil {
			return err
		}
		if r.Name == "" {
			r.Name = fmt.Sprintf("r%d", len(d.sess.M.C.Rules)+1)
		}
		var opErr error
		d.last = timeOp(func() { opErr = d.sess.AddRule(r) })
		if opErr != nil {
			return opErr
		}
		d.report("add rule")
	case "pred":
		ri, err := strconv.Atoi(fields[2])
		if err != nil {
			return fmt.Errorf("bad rule index %q", fields[2])
		}
		src := strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(strings.TrimPrefix(rest, "pred")), fields[2]))
		p, err := rule.ParsePredicate(src)
		if err != nil {
			return err
		}
		var opErr error
		d.last = timeOp(func() { opErr = d.sess.AddPredicate(ri, p) })
		if opErr != nil {
			return opErr
		}
		d.report("add predicate")
	default:
		return fmt.Errorf("usage: add rule <dsl> | add pred <ruleIdx> <dsl>")
	}
	return nil
}

func (d *debugger) cmdDrop(fields []string) error {
	switch {
	case len(fields) == 3 && fields[1] == "rule":
		ri, err := strconv.Atoi(fields[2])
		if err != nil {
			return fmt.Errorf("bad rule index %q", fields[2])
		}
		var opErr error
		d.last = timeOp(func() { opErr = d.sess.RemoveRule(ri) })
		if opErr != nil {
			return opErr
		}
		d.report("drop rule")
	case len(fields) == 4 && fields[1] == "pred":
		ri, err1 := strconv.Atoi(fields[2])
		pj, err2 := strconv.Atoi(fields[3])
		if err1 != nil || err2 != nil {
			return fmt.Errorf("usage: drop pred <ruleIdx> <predIdx>")
		}
		var opErr error
		d.last = timeOp(func() { opErr = d.sess.RemovePredicate(ri, pj) })
		if opErr != nil {
			return opErr
		}
		d.report("drop predicate")
	default:
		return fmt.Errorf("usage: drop rule <ruleIdx> | drop pred <ruleIdx> <predIdx>")
	}
	return nil
}

func (d *debugger) cmdSet(fields []string) error {
	if len(fields) != 4 {
		return fmt.Errorf("usage: set <ruleIdx> <predIdx> <threshold>")
	}
	ri, err1 := strconv.Atoi(fields[1])
	pj, err2 := strconv.Atoi(fields[2])
	thr, err3 := strconv.ParseFloat(fields[3], 64)
	if err1 != nil || err2 != nil || err3 != nil {
		return fmt.Errorf("usage: set <ruleIdx> <predIdx> <threshold>")
	}
	var opErr error
	d.last = timeOp(func() { opErr = d.sess.SetThreshold(ri, pj, thr) })
	if opErr != nil {
		return opErr
	}
	d.report(d.sess.LastOp.Op)
	return nil
}

func (d *debugger) printQuality() {
	rep := quality.Evaluate(d.task.Pairs(), d.sess.St.Matched, d.task.DS.Gold, nil)
	fmt.Fprintf(d.out, "precision %.3f, recall %.3f, F1 %.3f (TP %d, FP %d, FN %d)\n",
		rep.Precision(), rep.Recall(), rep.F1(),
		rep.TruePositives, rep.FalsePositives, rep.FalseNegatives)
}

func (d *debugger) printStats() {
	st := d.sess.M.Stats
	memo, bitmaps := d.sess.MemoryBytes()
	fmt.Fprintf(d.out, "cumulative: %d feature computes, %d memo hits, %d predicate evals, %d rule evals\n",
		st.FeatureComputes, st.MemoHits, st.PredEvals, st.RuleEvals)
	fmt.Fprintf(d.out, "memory: memo %.2f MB (%d entries), bitmaps %.2f MB; %d features bound\n",
		float64(memo)/1e6, d.sess.M.Memo.Entries(), float64(bitmaps)/1e6, len(d.sess.M.C.Features))
}

// printPairs lists matched pairs, gold misses, or false positives.
func (d *debugger) printPairs(fields []string, kind string) {
	n := 5
	if len(fields) >= 2 {
		if v, err := strconv.Atoi(fields[1]); err == nil && v > 0 {
			n = v
		}
	}
	shown := 0
	for pi, p := range d.task.Pairs() {
		if shown >= n {
			break
		}
		matched := d.sess.Matched(pi)
		gold := d.task.DS.Gold[p.PairKey()]
		ok := false
		switch kind {
		case "matches":
			ok = matched
		case "misses":
			ok = !matched && gold
		case "falsepos":
			ok = matched && !gold
		}
		if !ok {
			continue
		}
		shown++
		ra := d.task.DS.A.Records[p.A]
		rb := d.task.DS.B.Records[p.B]
		tag := "non-gold"
		if gold {
			tag = "gold"
		}
		fmt.Fprintf(d.out, "%s ~ %s [%s]\n  A: %v\n  B: %v\n", ra.ID, rb.ID, tag, ra.Values, rb.Values)
	}
	if shown == 0 {
		fmt.Fprintf(d.out, "(no %s)\n", kind)
	}
}

// pairByIDs resolves two record IDs to a candidate pair index.
func (d *debugger) pairByIDs(idA, idB string) (int, error) {
	ai, ok := d.task.DS.A.RecordByID(idA)
	if !ok {
		return 0, fmt.Errorf("no record %q in table A", idA)
	}
	bi, ok := d.task.DS.B.RecordByID(idB)
	if !ok {
		return 0, fmt.Errorf("no record %q in table B", idB)
	}
	for k, p := range d.task.Pairs() {
		if int(p.A) == ai && int(p.B) == bi {
			return k, nil
		}
	}
	return 0, fmt.Errorf("(%s, %s) is not a candidate pair (blocking removed it)", idA, idB)
}

// explain evaluates every rule and predicate for one candidate pair,
// printing feature values — the analyst's "why did/didn't this match".
func (d *debugger) explain(idA, idB string) error {
	pi, err := d.pairByIDs(idA, idB)
	if err != nil {
		return err
	}
	pair := d.task.Pairs()[pi]
	e := explain.Pair(d.sess.M.C, pair)
	e.Format(d.out, d.task.DS.A, d.task.DS.B)
	gold := "non-gold"
	if d.task.DS.Gold[pair.PairKey()] {
		gold = "gold match"
	}
	fmt.Fprintf(d.out, "(labels: %s)\n", gold)
	return nil
}

// suggest proposes the smallest threshold relaxations that would make
// the closest rule cover an unmatched pair.
func (d *debugger) suggest(idA, idB string) error {
	pi, err := d.pairByIDs(idA, idB)
	if err != nil {
		return err
	}
	e := explain.Pair(d.sess.M.C, d.task.Pairs()[pi])
	if e.Matched {
		fmt.Fprintf(d.out, "pair already matches via %s; nothing to suggest\n", e.MatchedBy)
		return nil
	}
	s := e.Suggest()
	fmt.Fprintf(d.out, "closest rule: %s — to cover this pair, change:\n", s.Rule)
	for _, ch := range s.Changes {
		fmt.Fprintf(d.out, "  %s %s %g  ->  %s %s %.4f\n",
			ch.Feature, ch.Op, ch.OldThreshold, ch.Feature, ch.Op, ch.NewThreshold)
	}
	return nil
}

// save persists the session; restore reloads it against the loaded
// dataset's tables.
func (d *debugger) save(path string) error {
	if err := persist.SaveFile(path, d.sess, d.saveOpts...); err != nil {
		return err
	}
	fmt.Fprintf(d.out, "saved session to %s\n", path)
	return nil
}

func (d *debugger) restore(path string) error {
	s, err := persist.LoadFile(path, d.task.Lib, d.task.DS.A, d.task.DS.B)
	if err != nil {
		return err
	}
	s.Reconfigure(d.cfg)
	d.sess = s
	fmt.Fprintf(d.out, "restored session from %s: %d rules, %d matches, %d memo entries\n",
		path, len(s.M.C.Rules), s.MatchCount(), s.M.Memo.Entries())
	return nil
}
