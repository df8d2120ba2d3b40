package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rulematch/internal/cliflags"
	"rulematch/internal/sim"
	"rulematch/internal/table"

	"rulematch/internal/persist"
)

// writeInputs creates CSV tables and a rules file in a temp dir.
func writeInputs(t *testing.T) (dir string) {
	t.Helper()
	dir = t.TempDir()
	a := table.MustNew("A", []string{"cat", "name"})
	b := table.MustNew("B", []string{"cat", "name"})
	a.Append("a0", "c1", "matthew richardson")
	a.Append("a1", "c1", "john smith")
	a.Append("a2", "c2", "maria garcia")
	b.Append("b0", "c1", "matt richardson")
	b.Append("b1", "c1", "unrelated person")
	b.Append("b2", "c2", "mary garcia")
	if err := a.WriteCSVFile(filepath.Join(dir, "a.csv")); err != nil {
		t.Fatal(err)
	}
	if err := b.WriteCSVFile(filepath.Join(dir, "b.csv")); err != nil {
		t.Fatal(err)
	}
	rules := "rule r1: jaro_winkler(name, name) >= 0.85\n"
	if err := os.WriteFile(filepath.Join(dir, "rules.dsl"), []byte(rules), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

// baseOptions mirrors what main() builds before flag parsing: shared
// defaults from cliflags, pointed at the temp-dir inputs.
func baseOptions(dir string) options {
	return options{
		data: cliflags.Data{
			TableA:    filepath.Join(dir, "a.csv"),
			TableB:    filepath.Join(dir, "b.csv"),
			RulesFile: filepath.Join(dir, "rules.dsl"),
			BlockAttr: "cat",
		},
		eng: *cliflags.NewEngine(),
		ord: cliflags.Ordering{Order: "alg6", SampleFrac: 0.5},
		out: filepath.Join(dir, "matches.csv"),
	}
}

func TestRunEndToEnd(t *testing.T) {
	dir := writeInputs(t)
	o := baseOptions(dir)
	o.stat = true
	var diag strings.Builder
	if err := run(o, &diag); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(o.out)
	if err != nil {
		t.Fatal(err)
	}
	out := string(data)
	if !strings.Contains(out, "a0,b0") {
		t.Errorf("expected match a0,b0 missing:\n%s", out)
	}
	if !strings.Contains(out, "a2,b2") {
		t.Errorf("expected match a2,b2 missing:\n%s", out)
	}
	if strings.Contains(out, "a1,b1") {
		t.Errorf("unexpected match a1,b1:\n%s", out)
	}
	if !strings.Contains(diag.String(), "feature computes") {
		t.Errorf("stats not printed:\n%s", diag.String())
	}
}

func TestRunOrderingsAndParallelAgree(t *testing.T) {
	dir := writeInputs(t)
	var outputs []string
	for _, tc := range []struct {
		order    string
		parallel int
	}{
		{"none", 1},
		{"random", 1},
		{"theorem1", 1},
		{"alg5", 1},
		{"alg6", 2},
	} {
		o := baseOptions(dir)
		o.ord.Order = tc.order
		o.eng.Parallel = tc.parallel
		o.out = filepath.Join(dir, "out_"+tc.order+".csv")
		var diag strings.Builder
		if err := run(o, &diag); err != nil {
			t.Fatalf("%s: %v", tc.order, err)
		}
		data, err := os.ReadFile(o.out)
		if err != nil {
			t.Fatal(err)
		}
		outputs = append(outputs, string(data))
	}
	for i := 1; i < len(outputs); i++ {
		if outputs[i] != outputs[0] {
			t.Errorf("config %d output differs:\n%s\nvs\n%s", i, outputs[i], outputs[0])
		}
	}
}

// -save materializes the session (in parallel shards here) and writes a
// snapshot emdebug can restore; the CSV output must agree with the
// plain batch path.
func TestRunSaveSessionParallel(t *testing.T) {
	dir := writeInputs(t)
	o := baseOptions(dir)
	o.save = filepath.Join(dir, "session.gob")
	o.eng.Parallel = 3
	o.stat = true
	var diag strings.Builder
	if err := run(o, &diag); err != nil {
		t.Fatal(err)
	}
	data, _ := os.ReadFile(o.out)
	if !strings.Contains(string(data), "a0,b0") || !strings.Contains(string(data), "a2,b2") {
		t.Errorf("matches missing from -save run:\n%s", data)
	}
	if !strings.Contains(diag.String(), "snapshot saved to") {
		t.Errorf("snapshot stat line missing:\n%s", diag.String())
	}
	// The snapshot restores to a verifiable session.
	a, err := table.ReadCSVFile(filepath.Join(dir, "a.csv"), "A")
	if err != nil {
		t.Fatal(err)
	}
	b, err := table.ReadCSVFile(filepath.Join(dir, "b.csv"), "B")
	if err != nil {
		t.Fatal(err)
	}
	sess, err := persist.LoadFile(o.save, sim.Standard(), a, b)
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.VerifyDeep(); err != nil {
		t.Fatalf("restored session invalid: %v", err)
	}
	if sess.MatchCount() != 2 {
		t.Errorf("restored session has %d matches, want 2", sess.MatchCount())
	}
}

func TestRunTokenBlocking(t *testing.T) {
	dir := writeInputs(t)
	o := baseOptions(dir)
	o.data.BlockAttr = ""
	o.data.BlockTokens = "name"
	o.ord.Order = "none"
	o.out = filepath.Join(dir, "m.csv")
	var diag strings.Builder
	if err := run(o, &diag); err != nil {
		t.Fatal(err)
	}
	data, _ := os.ReadFile(o.out)
	if !strings.Contains(string(data), "a0,b0") {
		t.Errorf("token blocking lost the richardson match:\n%s", data)
	}
}

func TestRunValidation(t *testing.T) {
	dir := writeInputs(t)
	var diag strings.Builder
	cases := []func(o options) options{
		func(o options) options { o.data.TableA = ""; return o },
		func(o options) options { o.data.BlockAttr = ""; return o },
		func(o options) options { o.data.BlockTokens = "name"; return o },
		func(o options) options { o.data.BlockAttr = "nope"; return o },
		func(o options) options { o.ord.Order = "zorder"; return o },
		func(o options) options { o.data.RulesFile = dir + "/missing.dsl"; return o },
	}
	for i, mutate := range cases {
		if err := run(mutate(baseOptions(dir)), &diag); err == nil {
			t.Errorf("case %d: invalid options accepted", i)
		}
	}
}

func TestRunGoldQuality(t *testing.T) {
	dir := writeInputs(t)
	gold := "idA,idB\na0,b0\na2,b2\n"
	goldPath := filepath.Join(dir, "gold.csv")
	if err := os.WriteFile(goldPath, []byte(gold), 0o644); err != nil {
		t.Fatal(err)
	}
	o := baseOptions(dir)
	o.data.GoldFile = goldPath
	o.ord.Order = "conditional"
	var diag strings.Builder
	if err := run(o, &diag); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(diag.String(), "precision 1.000") {
		t.Errorf("quality line missing or wrong:\n%s", diag.String())
	}
	// Bad gold file: unknown record.
	if err := os.WriteFile(goldPath, []byte("idA,idB\nzz,b0\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	o.ord.Order = "none"
	if err := run(o, &diag); err == nil {
		t.Error("bad gold file accepted")
	}
}
