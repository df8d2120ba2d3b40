package main

import (
	"testing"
)

// Self-tests of the benchmark's determinism: one seed must replay the
// same inputs, script and per-layer work counts, and a traced pass must
// never record a child span outside its parent.

func TestInputsRepeatForSeed(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			a, err := w.gen(7, 1)
			if err != nil {
				t.Fatal(err)
			}
			b, err := w.gen(7, 1)
			if err != nil {
				t.Fatal(err)
			}
			if a.digest() != b.digest() {
				t.Fatalf("seed 7 generated different inputs twice")
			}
			for i := range a.sessions {
				sa, sb := a.sessions[i], b.sessions[i]
				if sa.csvA != sb.csvA || sa.csvB != sb.csvB || sa.rules.String() != sb.rules.String() {
					t.Fatalf("seed 7 generated different tables or rules twice")
				}
			}
			c, err := w.gen(8, 1)
			if err != nil {
				t.Fatal(err)
			}
			if scriptDigest(a) == scriptDigest(c) {
				t.Fatalf("seeds 7 and 8 generated the same script")
			}
		})
	}
}

// scriptDigest fingerprints the op script alone.
func scriptDigest(in *inputs) string {
	only := &inputs{script: in.script}
	return only.digest()
}

// counts is the deterministic part of a traced pass.
type counts struct {
	sessionOps, examined, moves, pairsAdded   int
	featureComputes, memoHits, predEvals      int64
	ruleEvals                                 int64
	acquires, releases, walRecords            int
	reloads, evictions                        uint64
	walBytes                                  int64
	compactions, spans, decompositions, notes int
}

func countsOf(p *pass) counts {
	c := p.d.cnt
	return counts{
		sessionOps: c.sessionOps, examined: c.examined, moves: c.moves, pairsAdded: c.pairsAdded,
		featureComputes: c.stats.FeatureComputes, memoHits: c.stats.MemoHits,
		predEvals: c.stats.PredEvals, ruleEvals: c.stats.RuleEvals,
		acquires: c.acquires, releases: c.releases, walRecords: c.walRecords,
		reloads: c.reloads, evictions: c.evictions, walBytes: c.walBytes,
		compactions: c.compactions, spans: len(p.spans), decompositions: len(p.d.snapshotBytes),
		notes: len(p.d.rec.notes),
	}
}

func TestTracedCountsRepeatForSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full stack")
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			in, err := w.gen(3, 1)
			if err != nil {
				t.Fatal(err)
			}
			var runs []counts
			for i := 0; i < 2; i++ {
				p, err := directPass(in, t.TempDir(), true)
				if err != nil {
					t.Fatal(err)
				}
				if p.check != nil {
					t.Fatalf("output check: %v", p.check)
				}
				if _, failed := p.d.rec.totals(); failed != 0 {
					t.Fatalf("%d failed ops: %v", failed, p.d.rec.notes)
				}
				if err := checkNesting(p.spans); err != nil {
					t.Fatal(err)
				}
				runs = append(runs, countsOf(p))
			}
			if runs[0] != runs[1] {
				t.Fatalf("per-layer counts differ between two runs of one seed:\n%+v\n%+v", runs[0], runs[1])
			}
			if runs[0].sessionOps == 0 || runs[0].walRecords == 0 {
				t.Fatalf("pass did no work: %+v", runs[0])
			}
		})
	}
}

func TestCheckNestingRejectsEscapingChild(t *testing.T) {
	ok := []span{{Name: "op.edit", Start: 0, End: 10, Parent: -1}, {Name: "wal.record", Start: 2, End: 9, Parent: 0}}
	if err := checkNesting(ok); err != nil {
		t.Fatalf("nested spans rejected: %v", err)
	}
	bad := []span{{Name: "op.edit", Start: 0, End: 10, Parent: -1}, {Name: "wal.record", Start: 2, End: 11, Parent: 0}}
	if checkNesting(bad) == nil {
		t.Fatal("child span past its parent's end accepted")
	}
	self := selfTimes(ok)
	if self[0] != 3 || self[1] != 7 {
		t.Fatalf("self times %v, want [3 7]", self)
	}
}
