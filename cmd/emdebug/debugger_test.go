package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rulematch/internal/cliflags"
	"rulematch/internal/table"
)

// writeTask writes a minimal emgen-style task directory.
func writeTask(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	a := table.MustNew("A", []string{"cat", "name"})
	b := table.MustNew("B", []string{"cat", "name"})
	a.Append("a0", "c1", "matthew richardson")
	a.Append("a1", "c1", "john smith")
	a.Append("a2", "c2", "maria garcia")
	b.Append("b0", "c1", "matt richardson")
	b.Append("b1", "c1", "entirely different")
	b.Append("b2", "c2", "mary garcia")
	if err := a.WriteCSVFile(filepath.Join(dir, "tableA.csv")); err != nil {
		t.Fatal(err)
	}
	if err := b.WriteCSVFile(filepath.Join(dir, "tableB.csv")); err != nil {
		t.Fatal(err)
	}
	rules := "rule r1: jaro_winkler(name, name) >= 0.85\nrule r2: trigram(name, name) >= 0.6\n"
	if err := os.WriteFile(filepath.Join(dir, "rules.dsl"), []byte(rules), 0o644); err != nil {
		t.Fatal(err)
	}
	gold := "idA,idB\na0,b0\na2,b2\n"
	if err := os.WriteFile(filepath.Join(dir, "gold.csv"), []byte(gold), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

// newTestDebugger builds a debugger as main does, from the engine
// flags in args (e.g. "-parallel", "3").
func newTestDebugger(t *testing.T, out io.Writer, args ...string) *debugger {
	t.Helper()
	eng := cliflags.NewEngine()
	fs := flag.NewFlagSet("emdebug", flag.ContinueOnError)
	eng.Register(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return newDebugger(out, eng.Config())
}

// run executes commands against a fresh debugger, returning its output.
func run(t *testing.T, cmds ...string) string {
	t.Helper()
	var sb strings.Builder
	d := newTestDebugger(t, &sb)
	dir := writeTask(t)
	if err := d.loadCSV(dir, "cat"); err != nil {
		t.Fatal(err)
	}
	for _, cmd := range cmds {
		quit, err := d.exec(cmd)
		if err != nil {
			fmt.Fprintf(&sb, "error: %v\n", err)
		}
		if quit {
			break
		}
	}
	return sb.String()
}

func TestDebuggerLoadCSVAndQuality(t *testing.T) {
	out := run(t, "quality")
	if !strings.Contains(out, "precision") {
		t.Errorf("quality output missing:\n%s", out)
	}
	if !strings.Contains(out, "candidate pairs") {
		t.Errorf("load banner missing:\n%s", out)
	}
}

func TestDebuggerRuleEditing(t *testing.T) {
	out := run(t,
		"rules",
		"add rule r3: exact_match(cat, cat) >= 1",
		"set 0 0 0.9",
		"drop pred 2 0", // r3 now empty -> error expected on only predicate
		"drop rule 2",
		"rules",
	)
	if !strings.Contains(out, "add rule:") {
		t.Errorf("add rule report missing:\n%s", out)
	}
	if !strings.Contains(out, "tighten_predicate") {
		t.Errorf("tighten report missing:\n%s", out)
	}
	if !strings.Contains(out, "cannot remove the only predicate") {
		t.Errorf("only-predicate guard missing:\n%s", out)
	}
	if strings.Contains(out, "[2]") && strings.Count(out, "r3") > 2 {
		t.Errorf("rule r3 not dropped:\n%s", out)
	}
}

func TestDebuggerExplainAndSuggest(t *testing.T) {
	out := run(t, "explain a0 b0", "suggest a1 b1", "explain a0 b9")
	if !strings.Contains(out, "MATCH via") {
		t.Errorf("explain verdict missing:\n%s", out)
	}
	if !strings.Contains(out, "closest rule") {
		t.Errorf("suggestion missing:\n%s", out)
	}
	if !strings.Contains(out, "error:") {
		t.Errorf("unknown record not reported:\n%s", out)
	}
}

func TestDebuggerInspection(t *testing.T) {
	out := run(t, "matches 2", "misses", "falsepos", "stats", "time")
	for _, want := range []string{"gold", "feature computes", "last operation"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestDebuggerSaveRestore(t *testing.T) {
	var sb strings.Builder
	d := newTestDebugger(t, &sb)
	dir := writeTask(t)
	if err := d.loadCSV(dir, "cat"); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "s.gob")
	if _, err := d.exec("save " + path); err != nil {
		t.Fatal(err)
	}
	before := d.sess.MatchCount()
	if _, err := d.exec("add rule rx: exact_match(cat, cat) >= 1"); err != nil {
		t.Fatal(err)
	}
	if d.sess.MatchCount() == before {
		t.Fatal("edit had no effect; test is vacuous")
	}
	if _, err := d.exec("restore " + path); err != nil {
		t.Fatal(err)
	}
	if d.sess.MatchCount() != before {
		t.Errorf("restore did not roll back: %d vs %d", d.sess.MatchCount(), before)
	}
}

func TestDebuggerErrors(t *testing.T) {
	var sb strings.Builder
	d := newTestDebugger(t, &sb)
	if _, err := d.exec("quality"); err == nil {
		t.Error("command without session accepted")
	}
	if _, err := d.exec("bogus command"); err == nil {
		t.Error("unknown command accepted")
	}
	if quit, _ := d.exec("quit"); !quit {
		t.Error("quit did not quit")
	}
	if quit, _ := d.exec("# comment"); quit {
		t.Error("comment terminated the session")
	}
	if _, err := d.exec("load nosuchdataset"); err == nil {
		t.Error("unknown dataset accepted")
	}
}

func TestDebuggerSweepAndPerRuleQuality(t *testing.T) {
	out := run(t, "rules", "sweep 0 0", "sweep 9 9")
	if !strings.Contains(out, "owns") || !strings.Contains(out, "precision") {
		t.Errorf("per-rule quality missing:\n%s", out)
	}
	if !strings.Contains(out, "thr 0.5") {
		t.Errorf("sweep output missing:\n%s", out)
	}
	if !strings.Contains(out, "error:") {
		t.Errorf("bad sweep indexes not rejected:\n%s", out)
	}
}

func TestDebuggerUndo(t *testing.T) {
	var sb strings.Builder
	d := newTestDebugger(t, &sb)
	if err := d.loadCSV(writeTask(t), "cat"); err != nil {
		t.Fatal(err)
	}
	if _, err := d.exec("undo"); err == nil {
		t.Error("undo with empty stack accepted")
	}
	before := d.sess.MatchCount()
	rulesBefore := len(d.sess.M.C.Rules)
	if _, err := d.exec("add rule rz: exact_match(cat, cat) >= 1"); err != nil {
		t.Fatal(err)
	}
	if _, err := d.exec("set 0 0 0.99"); err != nil {
		t.Fatal(err)
	}
	if _, err := d.exec("undo"); err != nil { // revert the set
		t.Fatal(err)
	}
	if _, err := d.exec("undo"); err != nil { // revert the add
		t.Fatal(err)
	}
	if d.sess.MatchCount() != before || len(d.sess.M.C.Rules) != rulesBefore {
		t.Errorf("undo did not restore: %d matches / %d rules, want %d / %d",
			d.sess.MatchCount(), len(d.sess.M.C.Rules), before, rulesBefore)
	}
	if err := d.sess.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestDebuggerLint(t *testing.T) {
	out := run(t,
		"lint",
		"add rule dup: jaro_winkler(name, name) >= 0.85",
		"lint",
	)
	if !strings.Contains(out, "no issues") {
		t.Errorf("clean lint message missing:\n%s", out)
	}
	if !strings.Contains(out, "duplicates") {
		t.Errorf("duplicate rule not flagged:\n%s", out)
	}
}

// A -parallel 3 debugger session must produce the same results as a
// one-worker one: same match counts, working sweeps and incremental
// ops. Sessions undo and restore load from snapshots keep the
// command-line engine configuration.
func TestDebuggerParallelWorkers(t *testing.T) {
	oneWorkerOut := run(t, "quality")
	var sb strings.Builder
	d := newTestDebugger(t, &sb, "-parallel", "3")
	dir := writeTask(t)
	if err := d.loadCSV(dir, "cat"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "(3 workers)") {
		t.Errorf("workers tag missing from load banner:\n%s", sb.String())
	}
	assertConfigured := func(after string) {
		t.Helper()
		if d.sess.M.Workers != 3 || !d.sess.M.C.ProfileCacheEnabled() {
			t.Fatalf("after %s: workers %d, profile cache %v; want 3 and on",
				after, d.sess.M.Workers, d.sess.M.C.ProfileCacheEnabled())
		}
	}
	assertConfigured("load")
	path := filepath.Join(t.TempDir(), "s.gob")
	for _, cmd := range []string{"quality", "sweep 0 0", "run", "save " + path, "set 0 0 0.9", "undo"} {
		if _, err := d.exec(cmd); err != nil {
			t.Fatalf("%s: %v", cmd, err)
		}
	}
	assertConfigured("undo")
	if _, err := d.exec("restore " + path); err != nil {
		t.Fatal(err)
	}
	assertConfigured("restore")
	if _, err := d.exec("run"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "full re-run (3 workers)") {
		t.Errorf("workers tag missing from re-run report:\n%s", sb.String())
	}
	if err := d.sess.VerifyDeep(); err != nil {
		t.Fatal(err)
	}
	// The quality line (P/R/F1 before any edit) matches the one-worker
	// run.
	want := ""
	for _, line := range strings.Split(oneWorkerOut, "\n") {
		if strings.Contains(line, "precision") {
			want = line
		}
	}
	if want == "" || !strings.Contains(sb.String(), want) {
		t.Errorf("3-worker quality differs from one worker:\nwant %q in\n%s", want, sb.String())
	}
}
