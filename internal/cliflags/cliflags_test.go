package cliflags

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"rulematch/internal/core"
	"rulematch/internal/sim"
	"rulematch/internal/table"
)

func writeInputs(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	a := table.MustNew("A", []string{"cat", "name"})
	b := table.MustNew("B", []string{"cat", "name"})
	a.Append("a0", "c1", "matthew richardson")
	a.Append("a1", "c2", "maria garcia")
	b.Append("b0", "c1", "matt richardson")
	b.Append("b1", "c2", "mary garcia")
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

// The flag names and defaults are the shared contract across the four
// CLIs: parse an empty command line and a fully overridden one.
func TestEngineFlagRoundTrip(t *testing.T) {
	e := NewEngine()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	e.Register(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if e.Parallel != 1 {
		t.Fatalf("defaults wrong: %+v", e)
	}

	e2 := NewEngine()
	fs2 := flag.NewFlagSet("test", flag.ContinueOnError)
	e2.Register(fs2)
	if err := fs2.Parse([]string{"-parallel", "0"}); err != nil {
		t.Fatal(err)
	}
	if cfg := e2.Config(); cfg != (core.Config{Workers: 0}) {
		t.Fatalf("config mapping wrong: %+v", cfg)
	}
	// Engine knobs that cannot change a result are not flags.
	for _, name := range []string{"batch", "dictprofiles", "valuecache", "blocksize", "profiles"} {
		if fs2.Lookup(name) != nil {
			t.Errorf("-%s is registered", name)
		}
	}
}

func TestEngineConfigDefaults(t *testing.T) {
	if cfg := NewEngine().Config(); cfg != (core.Config{Workers: 1}) {
		t.Fatalf("default config wrong: %+v", cfg)
	}
}

func TestDataLoad(t *testing.T) {
	dir := writeInputs(t)
	d := Data{
		TableA:    filepath.Join(dir, "a.csv"),
		TableB:    filepath.Join(dir, "b.csv"),
		RulesFile: filepath.Join(dir, "rules.dsl"),
		BlockAttr: "cat",
	}
	in, err := d.Load()
	if err != nil {
		t.Fatal(err)
	}
	if in.A.Len() != 2 || in.B.Len() != 2 || len(in.Pairs) != 2 {
		t.Fatalf("loaded %d/%d records, %d pairs", in.A.Len(), in.B.Len(), len(in.Pairs))
	}
	if len(in.Function.Rules) != 1 {
		t.Fatalf("parsed %d rules", len(in.Function.Rules))
	}
	if in.Gold != nil {
		t.Fatal("gold loaded without -gold")
	}
}

func TestDataLoadValidation(t *testing.T) {
	dir := writeInputs(t)
	base := Data{
		TableA:    filepath.Join(dir, "a.csv"),
		TableB:    filepath.Join(dir, "b.csv"),
		RulesFile: filepath.Join(dir, "rules.dsl"),
		BlockAttr: "cat",
	}
	cases := []func(d Data) Data{
		func(d Data) Data { d.TableA = ""; return d },
		func(d Data) Data { d.RulesFile = ""; return d },
		func(d Data) Data { d.BlockAttr = ""; return d },                       // neither blocker
		func(d Data) Data { d.BlockTokens = "name"; return d },                 // both blockers
		func(d Data) Data { d.BlockAttr = "nope"; return d },                   // unknown attribute
		func(d Data) Data { d.RulesFile = dir + "/missing.dsl"; return d },     // missing file
		func(d Data) Data { d.GoldFile = dir + "/missing_gold.csv"; return d }, // missing gold
	}
	for i, mutate := range cases {
		d := mutate(base)
		if _, err := d.Load(); err == nil {
			t.Errorf("case %d: invalid data flags accepted", i)
		}
	}
}

func TestOrderingApply(t *testing.T) {
	dir := writeInputs(t)
	d := Data{
		TableA:    filepath.Join(dir, "a.csv"),
		TableB:    filepath.Join(dir, "b.csv"),
		RulesFile: filepath.Join(dir, "rules.dsl"),
		BlockAttr: "cat",
	}
	in, err := d.Load()
	if err != nil {
		t.Fatal(err)
	}
	c, err := core.Compile(in.Function, sim.Standard(), in.A, in.B)
	if err != nil {
		t.Fatal(err)
	}
	for _, ord := range []string{"none", "random", "theorem1", "alg5", "alg6", "conditional"} {
		o := Ordering{Order: ord, SampleFrac: 0.5}
		if _, err := o.Apply(c, in.Pairs); err != nil {
			t.Errorf("%s: %v", ord, err)
		}
	}
	bad := Ordering{Order: "zorder", SampleFrac: 0.5}
	if _, err := bad.Apply(c, in.Pairs); err == nil {
		t.Error("unknown ordering accepted")
	}
}

func TestReadGold(t *testing.T) {
	dir := writeInputs(t)
	a, _ := table.ReadCSVFile(filepath.Join(dir, "a.csv"), "A")
	b, _ := table.ReadCSVFile(filepath.Join(dir, "b.csv"), "B")
	path := filepath.Join(dir, "gold.csv")
	if err := os.WriteFile(path, []byte("idA,idB\na0,b0\na1,b1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	gold, err := ReadGold(path, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if len(gold) != 2 {
		t.Fatalf("gold has %d entries, want 2", len(gold))
	}
	if !gold[table.Pair{A: 0, B: 0}.PairKey()] {
		t.Fatal("a0,b0 missing from gold")
	}
	if err := os.WriteFile(path, []byte("idA,idB\nzz,b0\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadGold(path, a, b); err == nil {
		t.Fatal("unknown record accepted")
	}
}

func TestSnapshotFlags(t *testing.T) {
	s := NewSnapshot()
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	s.Register(fs)
	if err := fs.Parse([]string{"-fsync=false"}); err != nil {
		t.Fatal(err)
	}
	if s.Fsync {
		t.Fatalf("parsed %+v", s)
	}
	if got := len(s.Options()); got != 1 {
		t.Fatalf("%d save options, want 1", got)
	}
	if fs.Lookup("snapshot-v1") != nil {
		t.Error("-snapshot-v1 is registered")
	}
	if got := len(NewSnapshot().Options()); got != 0 {
		t.Fatalf("defaults produced %d options, want 0", got)
	}
}
