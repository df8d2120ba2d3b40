package incremental

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"rulematch/internal/block"
	"rulematch/internal/core"
	"rulematch/internal/rule"
	"rulematch/internal/sim"
	"rulematch/internal/table"
)

// Shared vocabulary for the streaming fixtures: blocking on city keeps
// the candidate sets non-trivial, the name/phone perturbations keep the
// match decisions mixed.
var (
	streamCities = []string{"seattle", "madison", "chicago", "columbus", "springfield"}
	streamNames  = []string{"matthew richardson", "john smith", "maria garcia", "wei chen", "sara lopez", "omar patel"}
)

func streamRecord(rng *rand.Rand, id string) table.Record {
	name := streamNames[rng.Intn(len(streamNames))]
	if rng.Intn(2) == 0 {
		// Perturb: drop a character so similarities land near thresholds.
		k := 1 + rng.Intn(len(name)-2)
		name = name[:k] + name[k+1:]
	}
	phone := fmt.Sprintf("%03d-555-0%03d", 200+rng.Intn(20), rng.Intn(200))
	return table.Record{ID: id, Values: []string{name, phone, streamCities[rng.Intn(len(streamCities))]}}
}

func streamTables(t testing.TB, rng *rand.Rand, nA, nB int) (*table.Table, *table.Table) {
	t.Helper()
	a := table.MustNew("A", []string{"name", "phone", "city"})
	b := table.MustNew("B", []string{"name", "phone", "city"})
	for i := 0; i < nA; i++ {
		if _, err := a.AppendRecord(streamRecord(rng, fmt.Sprintf("a%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for j := 0; j < nB; j++ {
		if _, err := b.AppendRecord(streamRecord(rng, fmt.Sprintf("b%d", j))); err != nil {
			t.Fatal(err)
		}
	}
	return a, b
}

const streamFunc = `
rule r1: jaro_winkler(name, name) >= 0.9 and exact_match(city, city) >= 1
rule r2: levenshtein(phone, phone) >= 0.9 and jaccard(name, name) >= 0.3
rule r3: trigram(name, name) >= 0.8
`

// blockedSession compiles streamFunc over the tables, blocks on city
// and materializes on the configured engine, with the blocker attached
// for record ops.
func blockedSession(t testing.TB, a, b *table.Table) *Session {
	t.Helper()
	f, err := rule.ParseFunction(streamFunc)
	if err != nil {
		t.Fatal(err)
	}
	c, err := core.Compile(f, sim.Standard(), a, b)
	if err != nil {
		t.Fatal(err)
	}
	blk := block.AttrEquivalence{Attr: "city"}
	pairs, err := blk.Pairs(a, b)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSessionConfig(c, pairs, core.Config{Workers: 1})
	s.Blocker = blk
	mustRun(t, s)
	return s
}

// assertStateParity compares the materialized state of two sessions
// bit for bit — they must index the same pair list.
func assertStateParity(t *testing.T, got, want *Session, context string) {
	t.Helper()
	if len(got.M.Pairs) != len(want.M.Pairs) {
		t.Fatalf("%s: %d pairs vs %d", context, len(got.M.Pairs), len(want.M.Pairs))
	}
	for pi := range want.M.Pairs {
		if got.M.Pairs[pi] != want.M.Pairs[pi] {
			t.Fatalf("%s: pair %d = %v vs %v", context, pi, got.M.Pairs[pi], want.M.Pairs[pi])
		}
	}
	if !got.St.Matched.Equal(want.St.Matched) {
		t.Fatalf("%s: Matched bitmaps differ", context)
	}
	for ri := range want.St.RuleTrue {
		if !got.St.RuleTrue[ri].Equal(want.St.RuleTrue[ri]) {
			t.Fatalf("%s: RuleTrue[%d] differs", context, ri)
		}
		for pj := range want.St.PredFalse[ri] {
			if !got.St.PredFalse[ri][pj].Equal(want.St.PredFalse[ri][pj]) {
				t.Fatalf("%s: PredFalse[%d][%d] differs", context, ri, pj)
			}
		}
	}
}

// assertMemoParity compares memo contents feature by feature, pair by
// pair: same presence, same value.
func assertMemoParity(t *testing.T, got, want *Session, context string) {
	t.Helper()
	nf := len(want.M.C.Features)
	for fi := 0; fi < nf; fi++ {
		for pi := range want.M.Pairs {
			wv, wok := want.M.Memo.Get(fi, pi)
			gv, gok := got.M.Memo.Get(fi, pi)
			if wok != gok || (wok && wv != gv) {
				t.Fatalf("%s: memo[%d][%d] = (%v,%v) vs (%v,%v)", context, fi, pi, gv, gok, wv, wok)
			}
		}
	}
}

// TestAddRecordsDeltaParity is the tentpole acceptance test: streaming
// append batches into a live session evaluates only the delta pairs yet
// leaves state and memo byte-identical to a cold full run over the
// final tables with the same pair list, and state equal to the
// pair-at-a-time Match.
func TestAddRecordsDeltaParity(t *testing.T) {
	// batch names the engine every session runs.
	t.Run("batch", func(t *testing.T) {
		rng := rand.New(rand.NewSource(42))
		a, b := streamTables(t, rng, 12, 14)
		s := blockedSession(t, a, b)
		basePairs := len(s.M.Pairs)

		for batch := 0; batch < 4; batch++ {
			var aRecs, bRecs []table.Record
			for i := 0; i < 3; i++ {
				aRecs = append(aRecs, streamRecord(rng, fmt.Sprintf("a%d", a.Len()+i)))
			}
			for j := 0; j < 2; j++ {
				bRecs = append(bRecs, streamRecord(rng, fmt.Sprintf("b%d", b.Len()+j)))
			}
			before := len(s.M.Pairs)
			if err := s.AddRecords(aRecs, bRecs); err != nil {
				t.Fatal(err)
			}
			// Delta-only evaluation: the op touched exactly the new pairs.
			added := len(s.M.Pairs) - before
			if s.LastOp.PairsAdded != added || s.LastOp.PairsExamined != added {
				t.Fatalf("batch %d: report %+v, want %d pairs added and examined",
					batch, s.LastOp, added)
			}
			if s.LastOp.Stats.PairEvals != int64(added) {
				t.Fatalf("batch %d: evaluated %d pairs, want only the %d delta pairs",
					batch, s.LastOp.Stats.PairEvals, added)
			}
			if err := s.VerifyDeep(); err != nil {
				t.Fatalf("batch %d: %v", batch, err)
			}
		}
		if len(s.M.Pairs) == basePairs {
			t.Fatal("degenerate fixture: appends produced no delta pairs")
		}

		// Cold oracle: compile the grown tables from scratch and
		// evaluate the exact same pair list in the same order.
		f, err := rule.ParseFunction(streamFunc)
		if err != nil {
			t.Fatal(err)
		}
		c2, err := core.Compile(f, sim.Standard(), a, b)
		if err != nil {
			t.Fatal(err)
		}
		cold := NewSessionConfig(c2, append([]table.Pair(nil), s.M.Pairs...), core.Config{Workers: 1})
		mustRun(t, cold)
		assertStateParity(t, s, cold, "stream vs cold")
		assertMemoParity(t, s, cold, "stream vs cold")
		if !s.St.Equal(core.NewMatcher(c2, s.M.Pairs).Match()) {
			t.Fatal("stream state differs from the pair-at-a-time Match")
		}
	})
}

func TestAddRecordsValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a, b := streamTables(t, rng, 6, 6)
	s := blockedSession(t, a, b)
	nPairs, nA := len(s.M.Pairs), a.Len()

	// Duplicate against the table.
	err := s.AddRecords([]table.Record{streamRecord(rng, "a0")}, nil)
	if err == nil {
		t.Fatal("duplicate ID accepted")
	}
	// Duplicate within the batch.
	err = s.AddRecords([]table.Record{streamRecord(rng, "ax"), streamRecord(rng, "ax")}, nil)
	if err == nil {
		t.Fatal("batch-internal duplicate accepted")
	}
	// Arity mismatch.
	err = s.AddRecords([]table.Record{{ID: "ay", Values: []string{"only one"}}}, nil)
	if err == nil {
		t.Fatal("arity mismatch accepted")
	}
	// All-or-nothing: nothing was applied.
	if a.Len() != nA || len(s.M.Pairs) != nPairs {
		t.Fatalf("failed batches mutated the session: %d records, %d pairs", a.Len(), len(s.M.Pairs))
	}
	// No blocker: appends unavailable, deletes still fine.
	s.Blocker = nil
	if err := s.AddRecords([]table.Record{streamRecord(rng, "az")}, nil); err == nil {
		t.Fatal("append without blocker accepted")
	}
	if err := s.DeleteRecords([]string{"a0"}, nil); err != nil {
		t.Fatalf("delete without blocker: %v", err)
	}
}

func TestDeleteRecords(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a, b := streamTables(t, rng, 10, 12)
	s := blockedSession(t, a, b)
	total := len(s.M.Pairs)

	if err := s.DeleteRecords([]string{"a1", "a4"}, []string{"b3"}); err != nil {
		t.Fatal(err)
	}
	removed := s.LastOp.PairsRemoved
	if s.LivePairCount() != total-removed {
		t.Fatalf("LivePairCount = %d, want %d", s.LivePairCount(), total-removed)
	}
	for pi, p := range s.M.Pairs {
		dead := a.Deleted(int(p.A)) || b.Deleted(int(p.B))
		if dead && s.St.Matched.Get(pi) {
			t.Fatalf("dead pair %d still matched", pi)
		}
		if dead != (s.DeadPairs() != nil && s.DeadPairs().Get(pi)) {
			t.Fatalf("dead bitmap out of sync at pair %d", pi)
		}
	}
	if err := s.VerifyDeep(); err != nil {
		t.Fatal(err)
	}

	// Unknown and double deletes are rejected atomically.
	if err := s.DeleteRecords([]string{"a1"}, nil); err == nil {
		t.Fatal("double delete accepted")
	}
	if err := s.DeleteRecords(nil, []string{"nope"}); err == nil {
		t.Fatal("unknown ID accepted")
	}

	// Rule edits must not resurrect dead pairs: relax every threshold
	// (the edit that re-examines recorded-false pairs), then sweep.
	for ri := range s.M.C.Rules {
		for pj := range s.M.C.Rules[ri].Preds {
			thr := s.M.C.Rules[ri].Preds[pj].Threshold
			if err := s.RelaxPredicate(ri, pj, thr*0.5); err != nil {
				t.Fatal(err)
			}
		}
	}
	dead := s.DeadPairs()
	for pi := 0; pi < len(s.M.Pairs); pi++ {
		if dead.Get(pi) && s.St.Matched.Get(pi) {
			t.Fatalf("relax resurrected dead pair %d", pi)
		}
	}
	if err := s.VerifyDeep(); err != nil {
		t.Fatalf("after relax: %v", err)
	}
	pts := sweep(t, s, 0, 0, []float64{0.1})
	for pi := 0; pi < len(s.M.Pairs); pi++ {
		if dead.Get(pi) && pts[0].Matched.Get(pi) {
			t.Fatalf("sweep reported dead pair %d as matched", pi)
		}
	}
}

// matchedIDSet projects the matched pairs onto record IDs, the
// representation that survives different pair orderings.
func matchedIDSet(s *Session) map[[2]string]bool {
	a, b := s.M.C.A, s.M.C.B
	out := make(map[[2]string]bool)
	for pi, p := range s.M.Pairs {
		if s.St.Matched.Get(pi) {
			out[[2]string{a.Records[p.A].ID, b.Records[p.B].ID}] = true
		}
	}
	return out
}

// TestInterleavedOpsParity drives a random interleaving of record
// appends, record deletes and rule edits, then checks the session's
// live result equals a from-scratch batch run over the final tables
// and final rules — the data-side dual of the paper's edit-parity
// property.
func TestInterleavedOpsParity(t *testing.T) {
	for trial := 0; trial < 6; trial++ {
		trial := trial
		// The last trial is delete-heavy: three ops in four are deletes,
		// so dead pairs come to outnumber live ones and get reclaimed.
		deleteHeavy := trial == 5
		t.Run(fmt.Sprintf("trial%d", trial), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(1000 + trial)))
			a, b := streamTables(t, rng, 10, 12)
			s := blockedSession(t, a, b)

			nextA, nextB := a.Len(), b.Len()
			reclaimed := 0
			for step := 0; step < 12; step++ {
				op := rng.Intn(4)
				if deleteHeavy && op >= 2 {
					op = 1
				}
				switch op {
				case 0: // append a small batch
					var aRecs, bRecs []table.Record
					for i := 0; i < 1+rng.Intn(3); i++ {
						aRecs = append(aRecs, streamRecord(rng, fmt.Sprintf("a%d", nextA)))
						nextA++
					}
					for j := 0; j < rng.Intn(3); j++ {
						bRecs = append(bRecs, streamRecord(rng, fmt.Sprintf("b%d", nextB)))
						nextB++
					}
					if err := s.AddRecords(aRecs, bRecs); err != nil {
						t.Fatal(err)
					}
				case 1: // delete one live record, if any remain
					if id, ok := pickLive(rng, a); ok {
						if err := s.DeleteRecords([]string{id}, nil); err != nil {
							t.Fatal(err)
						}
						reclaimed += s.LastOp.PairsReclaimed
					}
				case 2: // threshold wiggle
					ri := rng.Intn(len(s.M.C.Rules))
					pj := rng.Intn(len(s.M.C.Rules[ri].Preds))
					thr := s.M.C.Rules[ri].Preds[pj].Threshold
					var err error
					if rng.Intn(2) == 0 {
						err = s.TightenPredicate(ri, pj, thr+0.02)
					} else {
						err = s.RelaxPredicate(ri, pj, thr-0.02)
					}
					if err != nil {
						t.Fatal(err)
					}
				case 3: // add then (sometimes) remove a rule
					r, err := rule.ParseRule(fmt.Sprintf("rule x%d: jaccard(name, name) >= 0.%d", step, 5+rng.Intn(4)))
					if err != nil {
						t.Fatal(err)
					}
					if err := s.AddRule(r); err != nil {
						t.Fatal(err)
					}
					if rng.Intn(2) == 0 {
						if err := s.RemoveRule(len(s.M.C.Rules) - 1); err != nil {
							t.Fatal(err)
						}
					}
				}
				if err := s.VerifyDeep(); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
			}
			if deleteHeavy && reclaimed == 0 {
				t.Fatal("delete-heavy trial never reclaimed dead pairs")
			}
			assertColdParity(t, s)
		})
	}
}

// assertColdParity checks a session's live candidate pairs and matches,
// by record IDs, against a from-scratch oracle: the session's current
// rules over its final tables, blocked fresh (deleted records skipped
// at the source).
func assertColdParity(t *testing.T, s *Session) {
	t.Helper()
	a, b := s.M.C.A, s.M.C.B
	var f rule.Function
	for ri := range s.M.C.Rules {
		cr := &s.M.C.Rules[ri]
		r := rule.Rule{Name: cr.Name}
		for _, cp := range cr.Preds {
			r.Preds = append(r.Preds, rule.Predicate{
				Feature:   s.M.C.Features[cp.Feat].Feature,
				Op:        cp.Op,
				Threshold: cp.Threshold,
			})
		}
		f.Rules = append(f.Rules, r)
	}
	c2, err := core.Compile(f, sim.Standard(), a, b)
	if err != nil {
		t.Fatal(err)
	}
	blk := block.AttrEquivalence{Attr: "city"}
	pairs, err := blk.Pairs(a, b)
	if err != nil {
		t.Fatal(err)
	}
	cold := NewSession(c2, pairs)
	mustRun(t, cold)

	gotLive := livePairIDSet(s)
	wantLive := make(map[[2]string]bool, len(pairs))
	for _, p := range pairs {
		wantLive[[2]string{a.Records[p.A].ID, b.Records[p.B].ID}] = true
	}
	if len(gotLive) != len(wantLive) {
		t.Fatalf("live candidate sets differ: %d vs %d", len(gotLive), len(wantLive))
	}
	for k := range wantLive {
		if !gotLive[k] {
			t.Fatalf("cold candidate %v missing from live session pairs", k)
		}
	}
	got, want := matchedIDSet(s), matchedIDSet(cold)
	if len(got) != len(want) {
		t.Fatalf("matched sets differ in size: %d vs %d", len(got), len(want))
	}
	for k := range want {
		if !got[k] {
			t.Fatalf("cold match %v missing from interleaved session", k)
		}
	}
}

// pairRecord is everything a session holds for one candidate pair:
// its state bits and its memo entries.
type pairRecord struct {
	matched   bool
	ruleTrue  []bool
	predFalse [][]bool
	memo      map[int]float64 // feature index -> memoized value
}

// pairRecords captures every pair's state bits and memo entries, keyed
// by record IDs so the capture survives renumbering.
func pairRecords(s *Session) map[[2]string]pairRecord {
	a, b := s.M.C.A, s.M.C.B
	out := make(map[[2]string]pairRecord, len(s.M.Pairs))
	for pi, p := range s.M.Pairs {
		r := pairRecord{matched: s.St.Matched.Get(pi), memo: map[int]float64{}}
		for ri := range s.St.RuleTrue {
			r.ruleTrue = append(r.ruleTrue, s.St.RuleTrue[ri].Get(pi))
			var pf []bool
			for _, pb := range s.St.PredFalse[ri] {
				pf = append(pf, pb.Get(pi))
			}
			r.predFalse = append(r.predFalse, pf)
		}
		for fi := range s.M.C.Features {
			if v, ok := s.M.Memo.Get(fi, pi); ok {
				r.memo[fi] = v
			}
		}
		out[[2]string{a.Records[p.A].ID, b.Records[p.B].ID}] = r
	}
	return out
}

// TestReclaimDeadPairs drives a seeded append/delete/edit stream until
// deletes have reclaimed dead pairs at least twice. Across each reclaiming delete every surviving pair keeps its
// state bits and memo entries at its new index, the work counters do
// not move, every record tombstoned since the last reclamation is
// released (see assertReleased), and after every delete dead pairs
// never outnumber live ones. The final state passes VerifyDeep and
// matches a cold run over the live tables, and keeps doing so through
// two full-column scans that read the released records as "": binding
// a new profiled feature and a dictionary rebuild.
func TestReclaimDeadPairs(t *testing.T) {
	t.Run("array", func(t *testing.T) {
		rng := rand.New(rand.NewSource(77))
		a, b := streamTables(t, rng, 12, 14)
		s := blockedSession(t, a, b)
		nextA, nextB := a.Len(), b.Len()
		// Every record holds one profile per profile set until it is
		// released.
		perRecord := s.M.C.ProfileEntries() / (a.Len() + b.Len())
		if perRecord == 0 {
			t.Fatal("fixture caches no profiles")
		}
		reclaims, released := 0, 0
		for step := 0; step < 36; step++ {
			switch step % 3 {
			case 0:
				var aRecs, bRecs []table.Record
				for i := 0; i < 3; i++ {
					aRecs = append(aRecs, streamRecord(rng, fmt.Sprintf("a%d", nextA)))
					bRecs = append(bRecs, streamRecord(rng, fmt.Sprintf("b%d", nextB)))
					nextA++
					nextB++
				}
				if err := s.AddRecords(aRecs, bRecs); err != nil {
					t.Fatal(err)
				}
			case 1:
				var delA, delB []string
				for i := 0; i < 3; i++ {
					if id, ok := pickLive(rng, a); ok && !slices.Contains(delA, id) {
						delA = append(delA, id)
					}
				}
				if id, ok := pickLive(rng, b); ok {
					delB = append(delB, id)
				}
				before, stats, nPairs := pairRecords(s), s.M.Stats, len(s.M.Pairs)
				entries := s.M.C.ProfileEntries()
				if err := s.DeleteRecords(delA, delB); err != nil {
					t.Fatal(err)
				}
				if s.M.Stats != stats {
					t.Fatalf("step %d: delete moved the work counters: %+v -> %+v", step, stats, s.M.Stats)
				}
				if s.NumDead() > s.LivePairCount() {
					t.Fatalf("step %d: %d dead pairs outnumber %d live ones", step, s.NumDead(), s.LivePairCount())
				}
				if n := s.LastOp.PairsReclaimed; n > 0 {
					reclaims++
					if s.DeadPairs() != nil || len(s.M.Pairs) != nPairs-n {
						t.Fatalf("step %d: reclaimed %d of %d pairs, left %d pairs, dead mask %v",
							step, n, nPairs, len(s.M.Pairs), s.DeadPairs() != nil)
					}
					after := pairRecords(s)
					for k, got := range after {
						want, ok := before[k]
						if !ok {
							t.Fatalf("step %d: pair %v appeared during reclamation", step, k)
						}
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("step %d: pair %v state moved across reclamation:\n got %+v\nwant %+v", step, k, got, want)
						}
					}
					// Each record released now held a full set of
					// profiles and holds none; records released before
					// are untouched.
					tombs := a.NumDeleted() + b.NumDeleted()
					if got, want := s.M.C.ProfileEntries(), entries-perRecord*(tombs-released); got != want {
						t.Fatalf("step %d: %d profile entries after releasing %d records, want %d",
							step, got, tombs-released, want)
					}
					released = tombs
					assertReleased(t, s, step)
				} else if s.M.C.ProfileEntries() != entries {
					t.Fatalf("step %d: a delete without reclamation changed the profile cache", step)
				}
			default:
				ri := rng.Intn(len(s.M.C.Rules))
				pj := rng.Intn(len(s.M.C.Rules[ri].Preds))
				thr := s.M.C.Rules[ri].Preds[pj].Threshold
				if err := s.SetThreshold(ri, pj, thr+0.04*float64(rng.Intn(3)-1)); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.VerifyDeep(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
		if reclaims < 2 {
			t.Fatalf("stream reclaimed %d times, want at least 2", reclaims)
		}
		assertColdParity(t, s)

		// A newly bound profiled feature encodes every record of the
		// column pair, released ones as "".
		entries := s.M.C.ProfileEntries()
		cos := rule.Predicate{Feature: rule.Feature{Sim: "cosine", AttrA: "name", AttrB: "name"}, Op: rule.Ge, Threshold: 0.5}
		if err := s.AddPredicate(0, cos); err != nil {
			t.Fatal(err)
		}
		if got, want := s.M.C.ProfileEntries(), entries+a.Len()+b.Len(); got != want {
			t.Fatalf("after add_predicate: %d profile entries, want %d", got, want)
		}
		if err := s.VerifyDeep(); err != nil {
			t.Fatalf("after add_predicate: %v", err)
		}
		assertColdParity(t, s)

		// Unseen tokens force every name dictionary to be rebuilt over
		// the full columns, which re-encodes released records as "":
		// every record holds a profile in every set again.
		unseen := table.Record{ID: fmt.Sprintf("a%d", nextA), Values: []string{"zebulon quixote", "219-555-0199", "seattle"}}
		if err := s.AddRecords([]table.Record{unseen}, nil); err != nil {
			t.Fatal(err)
		}
		if got, want := s.M.C.ProfileEntries(), (perRecord+1)*(a.Len()+b.Len()); got != want {
			t.Fatalf("after the rebuilding append: %d profile entries, want %d", got, want)
		}
		if err := s.VerifyDeep(); err != nil {
			t.Fatalf("after the rebuilding append: %v", err)
		}
		assertColdParity(t, s)
	})
}

// assertReleased checks that, right after a reclaiming delete, every
// tombstone on both tables is released: each attribute reads "", its
// ID still resolves to its index, and re-appending the ID fails.
func assertReleased(t *testing.T, s *Session, step int) {
	t.Helper()
	for side, tb := range []*table.Table{s.M.C.A, s.M.C.B} {
		for _, i := range tb.DeletedIndices() {
			r := tb.Records[i]
			for col := range tb.Attrs {
				if v := tb.Value(int(i), col); v != "" {
					t.Fatalf("step %d: released record %s.%s reads %q for %s", step, tb.Name, r.ID, v, tb.Attrs[col])
				}
			}
			if j, ok := tb.RecordByID(r.ID); !ok || j != int(i) {
				t.Fatalf("step %d: released record %s.%s resolves to (%d, %v), want %d", step, tb.Name, r.ID, j, ok, i)
			}
			again := []table.Record{{ID: r.ID, Values: []string{"x", "y", "z"}}}
			var err error
			if side == 0 {
				err = s.AddRecords(again, nil)
			} else {
				err = s.AddRecords(nil, again)
			}
			if err == nil {
				t.Fatalf("step %d: re-appending released ID %s.%s succeeded", step, tb.Name, r.ID)
			}
		}
	}
}

func livePairIDSet(s *Session) map[[2]string]bool {
	a, b := s.M.C.A, s.M.C.B
	dead := s.DeadPairs()
	out := make(map[[2]string]bool)
	for pi, p := range s.M.Pairs {
		if dead != nil && dead.Get(pi) {
			continue
		}
		out[[2]string{a.Records[p.A].ID, b.Records[p.B].ID}] = true
	}
	return out
}

func pickLive(rng *rand.Rand, t *table.Table) (string, bool) {
	live := make([]int, 0, t.Len())
	for i := 0; i < t.Len(); i++ {
		if !t.Deleted(i) {
			live = append(live, i)
		}
	}
	if len(live) <= 2 {
		return "", false // keep the fixture non-degenerate
	}
	return t.Records[live[rng.Intn(len(live))]].ID, true
}
