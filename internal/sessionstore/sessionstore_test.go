package sessionstore

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
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

const testFunc = `
rule r1: jaro_winkler(name, name) >= 0.9 and exact_match(city, city) >= 1
rule r2: trigram(name, name) >= 0.75
`

// buildSession makes a small materialized session with its own tables
// and a delta-capable blocker, ready to Admit.
func buildSession(t *testing.T) (*incremental.Session, *table.Table, *table.Table) {
	t.Helper()
	a := table.MustNew("A", []string{"name", "city"})
	b := table.MustNew("B", []string{"name", "city"})
	rowsA := [][]string{
		{"matthew richardson", "seattle"}, {"john smith", "madison"},
		{"maria garcia", "chicago"}, {"wei chen", "milwaukee"},
	}
	rowsB := [][]string{
		{"matt richardson", "seattle"}, {"jon smith", "madison"},
		{"mary garcia", "chicago"}, {"alexandra cooper", "new york"},
	}
	for i, r := range rowsA {
		a.Append(fmt.Sprintf("a%d", i), r...)
	}
	for i, r := range rowsB {
		b.Append(fmt.Sprintf("b%d", i), r...)
	}
	f, err := rule.ParseFunction(testFunc)
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
	s := incremental.NewSession(c, pairs)
	s.Blocker = blocker
	if err := s.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	return s, a, b
}

// newDurableStore returns a store persisting into a temp dir.
func newDurableStore(t *testing.T, cfg Config) *Store {
	t.Helper()
	s := New(cfg)
	if err := s.EnableDurability(Durability{Dir: filepath.Join(t.TempDir(), "data"), Policy: wal.SyncPolicy{Mode: wal.SyncNever}}); err != nil {
		t.Fatal(err)
	}
	return s
}

func admit(t *testing.T, s *Store, name string) {
	t.Helper()
	sess, a, b := buildSession(t)
	if err := s.Admit(name, sess, a, b); err != nil {
		t.Fatalf("admit %q: %v", name, err)
	}
}

func saveBytes(t *testing.T, sess *incremental.Session) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := persist.Save(&buf, sess); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestAdmitAcquireRelease(t *testing.T) {
	s := newDurableStore(t, Config{})
	admit(t, s, "s1")
	if s.Len() != 1 {
		t.Fatalf("Len = %d", s.Len())
	}
	h, err := s.Acquire("s1", ModeRead)
	if err != nil {
		t.Fatal(err)
	}
	if h.Session() == nil || h.Session().MatchCount() == 0 {
		t.Error("acquired session has no state")
	}
	if !h.Durable() {
		t.Error("session in a durable store has no WAL")
	}
	h.Release()
	c := s.Counters()
	if c.Sessions != 1 || c.Resident != 1 || c.ResidentBytes <= 0 {
		t.Errorf("counters after admit: %+v", c)
	}
	if _, err := s.Acquire("nope", ModeRead); !errors.Is(err, ErrNotFound) {
		t.Errorf("unknown session: %v", err)
	}
}

func TestAdmitDuplicateName(t *testing.T) {
	s := newDurableStore(t, Config{})
	admit(t, s, "s1")
	sess, a, b := buildSession(t)
	if err := s.Admit("s1", sess, a, b); !errors.Is(err, ErrExists) {
		t.Errorf("duplicate admit: %v", err)
	}
}

func TestAdmitBadName(t *testing.T) {
	s := newDurableStore(t, Config{})
	sess, a, b := buildSession(t)
	if err := s.Admit("../escape", sess, a, b); !errors.Is(err, ErrBadName) {
		t.Errorf("bad name admit: %v", err)
	}
}

func TestMaxSessionsQuota(t *testing.T) {
	s := newDurableStore(t, Config{MaxSessions: 2})
	admit(t, s, "s1")
	admit(t, s, "s2")
	sess, a, b := buildSession(t)
	err := s.Admit("s3", sess, a, b)
	if !errors.Is(err, ErrTooManySessions) || !IsQuota(err) {
		t.Errorf("over-quota admit: %v", err)
	}
	// Removing one frees a slot.
	if !s.Remove("s1") {
		t.Fatal("remove failed")
	}
	if err := s.Admit("s3", sess, a, b); err != nil {
		t.Errorf("admit after remove: %v", err)
	}
}

func TestEphemeralBudgetIsHardCap(t *testing.T) {
	s := New(Config{}) // no durability: nothing to evict to
	admit(t, s, "s1")
	used := s.Counters().ResidentBytes
	s.SetLimits(0, used+1, 0) // room for almost nothing more
	sess, a, b := buildSession(t)
	if err := s.Admit("s2", sess, a, b); !errors.Is(err, ErrSessionTooLarge) {
		t.Errorf("ephemeral admit past budget: %v", err)
	}
	// The resident session is pinned: shrinking the budget to zero slack
	// must not evict it (there is no disk home to reload from).
	s.SetLimits(0, 1, 0)
	if c := s.Counters(); c.Resident != 1 || c.EvictedTotal != 0 {
		t.Errorf("ephemeral session evicted: %+v", c)
	}
}

func TestDurableOversizeRejected(t *testing.T) {
	s := newDurableStore(t, Config{MemBudget: 1}) // smaller than any session
	sess, a, b := buildSession(t)
	if err := s.Admit("s1", sess, a, b); !errors.Is(err, ErrSessionTooLarge) {
		t.Errorf("oversize admit: %v", err)
	}
}

func TestEditQuota(t *testing.T) {
	s := newDurableStore(t, Config{MaxEdits: 2})
	admit(t, s, "s1")
	for i := 0; i < 2; i++ {
		h, err := s.Acquire("s1", ModeEdit)
		if err != nil {
			t.Fatalf("edit %d: %v", i, err)
		}
		h.Release()
	}
	if _, err := s.Acquire("s1", ModeEdit); !errors.Is(err, ErrEditQuota) {
		t.Errorf("third edit: %v", err)
	}
	// Reads and non-edit writes are not charged.
	for _, m := range []Mode{ModeRead, ModeWrite} {
		h, err := s.Acquire("s1", m)
		if err != nil {
			t.Errorf("mode %v after quota: %v", m, err)
			continue
		}
		h.Release()
	}
}

func TestEvictThenTransparentReload(t *testing.T) {
	s := newDurableStore(t, Config{})
	admit(t, s, "s1")
	h, err := s.Acquire("s1", ModeRead)
	if err != nil {
		t.Fatal(err)
	}
	want := saveBytes(t, h.Session())
	wantMatches := h.Session().MatchCount()
	h.Release()

	if !s.Evict("s1") {
		t.Fatal("evict failed")
	}
	ei, ok := s.Info("s1")
	if !ok || ei.State != StateEvicted || ei.ResidentBytes != 0 {
		t.Fatalf("after evict: %+v", ei)
	}
	if c := s.Counters(); c.Resident != 0 || c.EvictedTotal != 1 || c.ResidentBytes != 0 {
		t.Fatalf("counters after evict: %+v", c)
	}
	// The cached summary survives eviction.
	if ei.Meta.Matches != wantMatches || ei.Meta.Rules == 0 {
		t.Errorf("cached meta lost on evict: %+v", ei.Meta)
	}

	// Next touch reloads; a clean session reloads byte-identically.
	h, err = s.Acquire("s1", ModeRead)
	if err != nil {
		t.Fatalf("acquire after evict: %v", err)
	}
	if got := saveBytes(t, h.Session()); !bytes.Equal(got, want) {
		t.Error("reloaded session is not byte-identical to the evicted one")
	}
	if err := h.Session().VerifyDeep(); err != nil {
		t.Error(err)
	}
	h.Release()
	if c := s.Counters(); c.Resident != 1 || c.ReloadedTotal != 1 {
		t.Errorf("counters after reload: %+v", c)
	}
	if lc, _ := s.Info("s1"); lc.State != StateResident || lc.Evictions != 1 || lc.Reloads != 1 {
		t.Errorf("lifecycle after reload: %+v", lc)
	}
}

func TestLRUEvictionPicksColdest(t *testing.T) {
	s := newDurableStore(t, Config{})
	admit(t, s, "s1")
	admit(t, s, "s2")
	admit(t, s, "s3")
	// Touch order: s2 is now the coldest.
	for _, name := range []string{"s2", "s3", "s1"} {
		h, err := s.Acquire(name, ModeRead)
		if err != nil {
			t.Fatal(err)
		}
		h.Release()
	}
	total := s.Counters().ResidentBytes
	s.SetLimits(0, total-1, 0) // force exactly one eviction
	if c := s.Counters(); c.EvictedTotal != 1 {
		t.Fatalf("evictions = %d, want 1", c.EvictedTotal)
	}
	for name, want := range map[string]string{"s1": StateResident, "s2": StateEvicted, "s3": StateResident} {
		if ei, _ := s.Info(name); ei.State != want {
			t.Errorf("%s state = %s, want %s", name, ei.State, want)
		}
	}
}

func TestListNeverReloads(t *testing.T) {
	s := newDurableStore(t, Config{})
	admit(t, s, "s1")
	admit(t, s, "s2")
	s.Evict("s1")
	before := s.Counters().ReloadedTotal
	infos := s.List()
	if len(infos) != 2 {
		t.Fatalf("List returned %d sessions", len(infos))
	}
	if infos[0].Name != "s1" || infos[1].Name != "s2" {
		t.Errorf("List order: %s, %s", infos[0].Name, infos[1].Name)
	}
	if infos[0].State != StateEvicted || infos[0].Meta.Matches == 0 {
		t.Errorf("evicted listing lost its summary: %+v", infos[0])
	}
	if got := s.Counters().ReloadedTotal; got != before {
		t.Errorf("List reloaded an evicted session (%d reloads)", got-before)
	}
}

func TestRemoveEvictedSessionDeletesDir(t *testing.T) {
	s := newDurableStore(t, Config{})
	admit(t, s, "s1")
	s.Evict("s1")
	dir := s.sessionDir("s1")
	if _, err := os.Stat(dir); err != nil {
		t.Fatalf("evicted session dir missing before remove: %v", err)
	}
	if !s.Remove("s1") {
		t.Fatal("remove failed")
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Errorf("session dir still on disk after remove: %v", err)
	}
	if _, err := s.Acquire("s1", ModeRead); !errors.Is(err, ErrNotFound) {
		t.Errorf("acquire after remove: %v", err)
	}
}

// Evicting a session that carries tombstones physically compacts its
// disk home: deleted records leave the CSVs and the reloaded session
// starts dense.
func TestEvictCompactsTombstonesOnDisk(t *testing.T) {
	s := newDurableStore(t, Config{})
	admit(t, s, "s1")
	h, err := s.Acquire("s1", ModeEdit)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Session().DeleteRecords([]string{"a1"}, []string{"b1"}); err != nil {
		t.Fatal(err)
	}
	h.RecordEdit(wal.Record{Op: "record_delete", DelA: []string{"a1"}, DelB: []string{"b1"}})
	wantMatches := h.Session().MatchCount()
	h.Release()

	if !s.Evict("s1") {
		t.Fatal("evict failed")
	}
	raw, err := os.ReadFile(filepath.Join(s.sessionDir("s1"), wal.TableAFile))
	if err != nil {
		t.Fatal(err)
	}
	if got := len(strings.Split(strings.TrimSpace(string(raw)), "\n")) - 1; got != 3 {
		t.Errorf("tableA.csv has %d records after compacting evict, want 3", got)
	}

	h, err = s.Acquire("s1", ModeRead)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Release()
	sess := h.Session()
	if sess.M.C.A.NumDeleted()+sess.M.C.B.NumDeleted() != 0 {
		t.Error("reloaded session still has tombstones")
	}
	if sess.NumDead() != 0 {
		t.Error("reloaded session still has dead pairs")
	}
	if sess.MatchCount() != wantMatches {
		t.Errorf("matches after reload = %d, want %d", sess.MatchCount(), wantMatches)
	}
	if err := sess.VerifyDeep(); err != nil {
		t.Error(err)
	}
}

// A second eviction of an untouched reloaded session skips the
// snapshot rewrite (the dirty flag): disk mtime aside, the observable
// contract is that it still round-trips byte-identically.
func TestCleanReEvictRoundTrips(t *testing.T) {
	s := newDurableStore(t, Config{})
	admit(t, s, "s1")
	s.Evict("s1")
	h, err := s.Acquire("s1", ModeRead)
	if err != nil {
		t.Fatal(err)
	}
	want := saveBytes(t, h.Session())
	h.Release()
	// Evict again without any write in between: clean fast path.
	if !s.Evict("s1") {
		t.Fatal("second evict failed")
	}
	h, err = s.Acquire("s1", ModeRead)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Release()
	if got := saveBytes(t, h.Session()); !bytes.Equal(got, want) {
		t.Error("clean re-evict changed session bytes")
	}
}

func TestRecoverAllRepopulatesStore(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "data")
	cfg := Config{}
	s := New(cfg)
	if err := s.EnableDurability(Durability{Dir: dir, Policy: wal.SyncPolicy{Mode: wal.SyncNever}}); err != nil {
		t.Fatal(err)
	}
	admit(t, s, "s1")
	admit(t, s, "s2")
	h, err := s.Acquire("s1", ModeRead)
	if err != nil {
		t.Fatal(err)
	}
	want := saveBytes(t, h.Session())
	h.Release()
	s.CloseAll()

	// A new store over the same dir picks both sessions up.
	s2 := New(cfg)
	if err := s2.EnableDurability(Durability{Dir: dir, Policy: wal.SyncPolicy{Mode: wal.SyncNever}}); err != nil {
		t.Fatal(err)
	}
	n, err := s2.RecoverAll()
	if err != nil || n != 2 {
		t.Fatalf("recovered %d sessions, err=%v", n, err)
	}
	h, err = s2.Acquire("s1", ModeRead)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Release()
	if got := saveBytes(t, h.Session()); !bytes.Equal(got, want) {
		t.Error("recovered session differs from the closed one")
	}
}

// A session admitted on a node at epoch e and restarted before its
// first journaled edit recovers at e: its first snapshot carries the
// node's epoch, so RecoverAll puts the node and the session back at e
// and a client stamped with e is not taken for a newer primary.
func TestRecoverAllKeepsAdmitEpoch(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "data")
	dur := Durability{Dir: dir, Policy: wal.SyncPolicy{Mode: wal.SyncNever}}
	s := New(Config{})
	if err := s.EnableDurability(dur); err != nil {
		t.Fatal(err)
	}
	s.SetEpoch(3)
	admit(t, s, "s1")
	s.CloseAll()

	s2 := New(Config{})
	if err := s2.EnableDurability(dur); err != nil {
		t.Fatal(err)
	}
	if n, err := s2.RecoverAll(); err != nil || n != 1 {
		t.Fatalf("recovered %d sessions, err=%v", n, err)
	}
	h, err := s2.Acquire("s1", ModeRead)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Release()
	if s2.Epoch() != 3 || h.Epoch() != 3 {
		t.Fatalf("recovered node epoch %d, session epoch %d; want 3 and 3", s2.Epoch(), h.Epoch())
	}
}
