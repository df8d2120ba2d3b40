package sessionstore

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"rulematch/internal/block"
	"rulematch/internal/core"
	"rulematch/internal/incremental"
	"rulematch/internal/persist"
	"rulematch/internal/rule"
	"rulematch/internal/sim"
	"rulematch/internal/table"
	"rulematch/internal/wal"
)

// The churn test is the store's differential oracle: N sessions run
// seeded edit scripts through the store under a budget small enough to
// force constant evict/reload cycles, racing a background evictor and
// readers; an oracle copy of each session applies the same script with
// no store at all. At the end the two must agree byte for byte —
// physical compaction at evict changes the layout (tombstones and dead
// pairs are dropped, indices remapped), so both sides are canonicalized
// through persist.Compact before comparison. Sessions whose scripts
// contain no deletes must also agree on the raw, uncompacted bytes.
//
// Corpus-dependent similarities (the tf_idf family) are excluded: their
// document frequencies are frozen per compile, and compaction
// recompiles over the live records.

const churnFunc = `
rule r1: jaro_winkler(name, name) >= 0.9 and exact_match(city, city) >= 1
rule r2: trigram(name, name) >= 0.7
rule r3: jaccard(name, name) >= 0.6
`

var churnCities = []string{"seattle", "madison", "chicago", "milwaukee", "austin"}
var churnNames = []string{
	"matthew richardson", "john smith", "maria garcia", "wei chen",
	"alexandra cooper", "james wilson", "fatima hassan", "carlos lopez",
}

// churnTables builds the deterministic base tables for one session.
func churnTables(rng *rand.Rand) (*table.Table, *table.Table) {
	a := table.MustNew("A", []string{"name", "city"})
	b := table.MustNew("B", []string{"name", "city"})
	for i := 0; i < 20; i++ {
		name := churnNames[rng.Intn(len(churnNames))]
		city := churnCities[rng.Intn(len(churnCities))]
		a.Append(fmt.Sprintf("a%d", i), name, city)
		b.Append(fmt.Sprintf("b%d", i), churnNames[rng.Intn(len(churnNames))], city)
	}
	return a, b
}

// churnSession compiles and materializes one session over its tables.
func churnSession(t *testing.T, a, b *table.Table, cfg core.Config) *incremental.Session {
	t.Helper()
	f, err := rule.ParseFunction(churnFunc)
	if err != nil {
		t.Fatal(err)
	}
	c, err := core.Compile(f, sim.Standard(), a, b)
	if err != nil {
		t.Fatal(err)
	}
	blocker := block.AttrEquivalence{Attr: "city"}
	pairs, err := blocker.Pairs(a, b)
	if err != nil {
		t.Fatal(err)
	}
	s := incremental.NewSessionConfig(c, pairs, cfg)
	s.Blocker = blocker
	if err := s.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	return s
}

// genScript evolves the oracle session through nOps random operations
// and returns the records that applied cleanly — the exact sequence the
// subject will replay through the store. allowDeletes=false keeps one
// session's history delete-free so raw (uncompacted) bytes stay
// comparable. IDs are never reused: compaction releases deleted IDs, so
// a re-append would be legal on one side and not the other.
func genScript(t *testing.T, oracle *incremental.Session, rng *rand.Rand, prefix string, nOps int, allowDeletes bool) []wal.Record {
	t.Helper()
	liveA := make([]string, 0, 32)
	liveB := make([]string, 0, 32)
	for _, r := range oracle.M.C.A.Records {
		liveA = append(liveA, r.ID)
	}
	for _, r := range oracle.M.C.B.Records {
		liveB = append(liveB, r.ID)
	}
	nextID, nextRule := 0, 0
	var script []wal.Record
	for len(script) < nOps {
		var rec wal.Record
		nr := len(oracle.M.C.Rules)
		switch k := rng.Intn(10); {
		case k < 3: // move a threshold
			ri := rng.Intn(nr)
			pj := rng.Intn(len(oracle.M.C.Rules[ri].Preds))
			rec = wal.Record{Op: "set_threshold", Rule: ri, Pred: pj,
				Threshold: 0.1 + 0.8*rng.Float64()}
		case k < 4: // add a predicate
			// Duplicate-feature adds are fair game: AddPredicate merges
			// them into the canonical group (strictest bound wins, weaker
			// bounds no-op), so the session's snapshot stays loadable.
			rec = wal.Record{Op: "add_predicate", Rule: rng.Intn(nr),
				Src: fmt.Sprintf("jaccard(city, city) >= %.2f", 0.1+0.5*rng.Float64())}
		case k < 5: // remove a predicate (keep at least one)
			ri := rng.Intn(nr)
			if len(oracle.M.C.Rules[ri].Preds) < 2 {
				continue
			}
			rec = wal.Record{Op: "remove_predicate", Rule: ri,
				Pred: rng.Intn(len(oracle.M.C.Rules[ri].Preds))}
		case k < 6: // add a rule
			rec = wal.Record{Op: "add_rule",
				Src: fmt.Sprintf("rule %sx%d: trigram(name, name) >= %.2f",
					prefix, nextRule, 0.3+0.6*rng.Float64())}
			nextRule++
		case k < 7: // remove a rule (keep at least two)
			if nr < 3 {
				continue
			}
			rec = wal.Record{Op: "remove_rule", Rule: rng.Intn(nr)}
		case k < 9: // append fresh records
			na := table.Record{ID: fmt.Sprintf("%sa%d", prefix, nextID),
				Values: []string{churnNames[rng.Intn(len(churnNames))], churnCities[rng.Intn(len(churnCities))]}}
			nb := table.Record{ID: fmt.Sprintf("%sb%d", prefix, nextID),
				Values: []string{churnNames[rng.Intn(len(churnNames))], churnCities[rng.Intn(len(churnCities))]}}
			nextID++
			rec = wal.Record{Op: "record_append", RecsA: []table.Record{na}, RecsB: []table.Record{nb}}
			liveA = append(liveA, na.ID)
			liveB = append(liveB, nb.ID)
		default: // delete a live record from each side
			if !allowDeletes || len(liveA) < 5 || len(liveB) < 5 {
				continue
			}
			ia, ib := rng.Intn(len(liveA)), rng.Intn(len(liveB))
			rec = wal.Record{Op: "record_delete",
				DelA: []string{liveA[ia]}, DelB: []string{liveB[ib]}}
			liveA = append(liveA[:ia], liveA[ia+1:]...)
			liveB = append(liveB[:ib], liveB[ib+1:]...)
		}
		if err := wal.Apply(oracle, rec); err != nil {
			t.Fatalf("oracle apply %+v: %v", rec, err)
		}
		script = append(script, rec)
	}
	return script
}

func TestChurnDifferential(t *testing.T) {
	cfg := core.Config{Workers: 1}
	const nSessions = 4
	const nOps = 50
	s := New(Config{Core: cfg})
	if err := s.EnableDurability(Durability{
		Dir:    filepath.Join(t.TempDir(), "data"),
		Policy: wal.SyncPolicy{Mode: wal.SyncNever},
	}); err != nil {
		t.Fatal(err)
	}

	names := make([]string, nSessions)
	oracles := make([]*incremental.Session, nSessions)
	scripts := make([][]wal.Record, nSessions)
	for i := 0; i < nSessions; i++ {
		names[i] = fmt.Sprintf("s%d", i)
		rng := rand.New(rand.NewSource(int64(1000 + i)))
		a, b := churnTables(rng)
		oracles[i] = churnSession(t, a, b, cfg)
		// The subject is an independently built twin over its own tables.
		a2, b2 := churnTables(rand.New(rand.NewSource(int64(1000 + i))))
		subj := churnSession(t, a2, b2, cfg)
		if err := s.Admit(names[i], subj, subj.M.C.A, subj.M.C.B); err != nil {
			t.Fatal(err)
		}
		// Session 0 stays delete-free so raw bytes remain comparable.
		scripts[i] = genScript(t, oracles[i], rng, fmt.Sprintf("n%d", i), nOps, i != 0)
	}

	// Budget roughly one session: every touch of a cold session pushes
	// someone else out, so evict/reload churns constantly.
	perSession := s.Counters().ResidentBytes / nSessions
	s.SetLimits(0, perSession+perSession/2, 0)

	var done atomic.Bool
	var wg sync.WaitGroup
	// Background evictor: forced evictions racing the edit goroutines.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(99))
		for !done.Load() {
			s.Evict(names[rng.Intn(nSessions)])
		}
	}()
	// Background readers: shared-mode touches shuffling the LRU order.
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for !done.Load() {
				h, err := s.Acquire(names[rng.Intn(nSessions)], ModeRead)
				if err != nil {
					continue
				}
				_ = h.Session().MatchCount()
				h.Release()
			}
		}(int64(200 + r))
	}
	// One writer per session replays its script through the store, a few
	// ops per acquisition — each release is an eviction opportunity.
	errs := make(chan error, nSessions)
	var writers sync.WaitGroup
	for i := 0; i < nSessions; i++ {
		writers.Add(1)
		go func(i int) {
			defer writers.Done()
			rng := rand.New(rand.NewSource(int64(300 + i)))
			script := scripts[i]
			for off := 0; off < len(script); {
				n := 1 + rng.Intn(3)
				if off+n > len(script) {
					n = len(script) - off
				}
				h, err := s.Acquire(names[i], ModeEdit)
				if err != nil {
					errs <- fmt.Errorf("%s: acquire: %w", names[i], err)
					return
				}
				for _, rec := range script[off : off+n] {
					if err := wal.Apply(h.Session(), rec); err != nil {
						h.Release()
						errs <- fmt.Errorf("%s: apply %+v: %w", names[i], rec, err)
						return
					}
					h.RecordEdit(rec)
				}
				off += n
				h.Release()
			}
		}(i)
	}
	writers.Wait()
	done.Store(true)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	c := s.Counters()
	if c.EvictedTotal == 0 || c.ReloadedTotal == 0 {
		t.Fatalf("churn exercised no evict/reload cycles: %+v", c)
	}
	t.Logf("churn: %d evictions, %d reloads", c.EvictedTotal, c.ReloadedTotal)

	for i := 0; i < nSessions; i++ {
		h, err := s.Acquire(names[i], ModeRead)
		if err != nil {
			t.Fatalf("%s: final acquire: %v", names[i], err)
		}
		subj := h.Session()
		if err := subj.VerifyDeep(); err != nil {
			t.Errorf("%s: subject invariants: %v", names[i], err)
		}
		if i == 0 {
			// Delete-free history: layouts never diverged, so even the raw
			// uncompacted bytes must match.
			if !bytes.Equal(saveBytes(t, subj), saveBytes(t, oracles[i])) {
				t.Errorf("%s: raw bytes diverged on a delete-free script", names[i])
			}
		}
		cSubj, err := persist.Compact(subj, sim.Standard())
		h.Release()
		if err != nil {
			t.Fatalf("%s: compact subject: %v", names[i], err)
		}
		cOracle, err := persist.Compact(oracles[i], sim.Standard())
		if err != nil {
			t.Fatalf("%s: compact oracle: %v", names[i], err)
		}
		if !bytes.Equal(saveBytes(t, cSubj), saveBytes(t, cOracle)) {
			t.Errorf("%s: canonicalized state diverged from the never-evicted oracle", names[i])
		}
	}
}
