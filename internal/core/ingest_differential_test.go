package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"rulematch/internal/datagen"
	"rulematch/internal/rule"
	"rulematch/internal/sim"
	"rulematch/internal/table"
)

// csvRoundTrip serializes t and reads it back through the given reader.
func csvRoundTrip(t *testing.T, tb *table.Table, read func([]byte, string) (*table.Table, error)) *table.Table {
	t.Helper()
	var buf bytes.Buffer
	if err := tb.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	out, err := read(buf.Bytes(), tb.Name)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func readFast(data []byte, name string) (*table.Table, error) {
	return table.ReadCSV(bytes.NewReader(data), name)
}

func readStd(data []byte, name string) (*table.Table, error) {
	return table.ReadCSVStd(bytes.NewReader(data), name)
}

// TestIngestPipelineDifferentialParity is the end-to-end acceptance
// test of the zero-copy ingest pipeline: tables read by the byte-scan
// CSV reader and profiled through the ID stream must produce a
// configured-matcher MatchState byte-identical to a Match over tables
// read by encoding/csv and scored without profiles (raw Fn.Sim) — over
// random tables, rule sets and candidate pairs.
func TestIngestPipelineDifferentialParity(t *testing.T) {
	lib := sim.Standard()
	for trial := 0; trial < 15; trial++ {
		rng := rand.New(rand.NewSource(int64(7000 + trial)))
		a0, b0, pairs := randomTables(rng)
		f := dictFunction(rng)

		// Reference: encoding/csv, no profile cache.
		aStd, bStd := csvRoundTrip(t, a0, readStd), csvRoundTrip(t, b0, readStd)
		ref, err := Compile(f, lib, aStd, bStd)
		if err != nil {
			continue // contradictory random rule: fine
		}
		oracle := NewMatcher(ref, pairs)
		want := oracle.Match()

		// Pipeline: zero-copy reader + intern-at-parse ID streams.
		aFast, bFast := csvRoundTrip(t, a0, readFast), csvRoundTrip(t, b0, readFast)
		c, err := Compile(f, lib, aFast, bFast)
		if err != nil {
			t.Fatalf("trial %d: fast-path compile failed: %v", trial, err)
		}
		m := Config{Workers: 1}.NewMatcher(c, pairs)
		if !m.MatchState().Equal(want) {
			t.Fatalf("trial %d: fast-ingest state diverges from encoding/csv + raw scores\n%s", trial, f.String())
		}
		for fi := range ref.Features {
			for pi := range pairs {
				sv, sok := oracle.Memo.Get(fi, pi)
				bv, bok := m.Memo.Get(fi, pi)
				if sok != bok || sv != bv {
					t.Fatalf("trial %d: memo (%d,%d) = %v,%v want %v,%v", trial, fi, pi, bv, bok, sv, sok)
				}
			}
		}
	}
}

// TestIngestPipelineDatasetParity runs the same comparison on a
// bundled synthetic dataset (products domain) end to end: CSV round
// trip, profile bind, full match on the configured matcher against a
// profile-less Match.
func TestIngestPipelineDatasetParity(t *testing.T) {
	ds, err := datagen.Generate(datagen.StandardConfig(datagen.Products(), 0.02))
	if err != nil {
		t.Fatal(err)
	}
	lib := sim.Standard()
	f := rule.Function{Rules: []rule.Rule{{
		Name: "r1",
		Preds: []rule.Predicate{
			{Feature: rule.Feature{Sim: "jaccard", AttrA: "title", AttrB: "title"}, Op: rule.Ge, Threshold: 0.4},
			{Feature: rule.Feature{Sim: "tf_idf", AttrA: "title", AttrB: "title"}, Op: rule.Ge, Threshold: 0.3},
		},
	}, {
		Name: "r2",
		Preds: []rule.Predicate{
			{Feature: rule.Feature{Sim: "trigram", AttrA: "modelno", AttrB: "modelno"}, Op: rule.Ge, Threshold: 0.5},
			{Feature: rule.Feature{Sim: "soundex", AttrA: "brand", AttrB: "brand"}, Op: rule.Ge, Threshold: 0.5},
		},
	}}}

	build := func(read func([]byte, string) (*table.Table, error)) *Compiled {
		a, b := csvRoundTrip(t, ds.A, read), csvRoundTrip(t, ds.B, read)
		c, err := Compile(f, lib, a, b)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}

	want := NewMatcher(build(readStd), ds.Pairs).Match()
	m := Config{Workers: 1}.NewMatcher(build(readFast), ds.Pairs)
	if !m.MatchState().Equal(want) {
		t.Fatal("fast-ingest state diverges on products dataset")
	}
}

// TestIngestExtendRecordsParity pins the streaming-append path: after
// AddRecords-style table growth, append-encoded profiles (covered
// dictionary), rebuild-encoded profiles (new tokens force a rebuild)
// and profiles first bound over the grown columns must match the
// profile-less raw scores feature for feature.
func TestIngestExtendRecordsParity(t *testing.T) {
	lib := sim.Standard()
	for trial := 0; trial < 10; trial++ {
		rng := rand.New(rand.NewSource(int64(8000 + trial)))
		a0, b0, _ := randomTables(rng)
		f := dictFunction(rng)

		compileOn := func(profiles bool, a, b *table.Table) *Compiled {
			c, err := Compile(f, lib, a, b)
			if err != nil {
				return nil
			}
			if profiles {
				c.EnableProfileCache()
				// Every other feature is bound before the appends, so
				// round 1 extends those and binds the rest over the
				// grown columns.
				for fi := 0; fi < len(c.Features); fi += 2 {
					c.profileOf(fi)
				}
			}
			return c
		}
		cloneTables := func() (*table.Table, *table.Table) {
			a := table.MustNew(a0.Name, a0.Attrs)
			for _, r := range a0.Records {
				a.Append(r.ID, r.Values...)
			}
			b := table.MustNew(b0.Name, b0.Attrs)
			for _, r := range b0.Records {
				b.Append(r.ID, r.Values...)
			}
			return a, b
		}

		aRef, bRef := cloneTables()
		ref := compileOn(false, aRef, bRef)
		if ref == nil {
			continue
		}
		aNew, bNew := cloneTables()
		c := compileOn(true, aNew, bNew)
		if c == nil {
			t.Fatalf("trial %d: profiled compile failed where raw compile succeeded", trial)
		}

		// Round 1: appended records reuse known tokens (covered dict,
		// append path). Round 2: a brand-new token forces the rebuild.
		appends := [][]string{
			{"ann chicago", "bobby", "nyc"},
			{"zzyzx quux", "carol", "unseen-token"},
		}
		for round, vals := range appends {
			id := fmt.Sprintf("x%d-%d", trial, round)
			for _, tb := range []*table.Table{aRef, aNew} {
				if err := tb.Append(id, vals...); err != nil {
					t.Fatal(err)
				}
			}
			bid := "y" + id
			for _, tb := range []*table.Table{bRef, bNew} {
				if err := tb.Append(bid, vals...); err != nil {
					t.Fatal(err)
				}
			}
			c.ExtendRecords()

			pairs := []table.Pair{
				{A: int32(aRef.Len() - 1), B: int32(bRef.Len() - 1)},
				{A: 0, B: int32(bRef.Len() - 1)},
				{A: int32(aRef.Len() - 1), B: 0},
				{A: 0, B: 0},
			}
			for fi := range ref.Features {
				for _, p := range pairs {
					wantV := ref.ComputeFeature(fi, p)
					gotV := c.ComputeFeature(fi, p)
					if wantV != gotV {
						t.Fatalf("trial %d round %d: feature %d (%s) pair %v = %v, want %v",
							trial, round, fi, ref.Features[fi].Key, p, gotV, wantV)
					}
				}
			}
		}
	}
}
