package sessionstore

import (
	"errors"
	"testing"

	"rulematch/internal/wal"
)

// TestReadOnlyStore proves the read-only gate: ModeEdit is refused
// with ErrReadOnly, while reads, ModeWrite (sweeps/runs) and the
// replication apply path (ModeApply) all proceed.
func TestReadOnlyStore(t *testing.T) {
	s := New(Config{})
	admit(t, s, "ro")
	s.SetReadOnly(true)
	if !s.ReadOnly() {
		t.Fatal("store not read-only after SetReadOnly(true)")
	}

	if _, err := s.Acquire("ro", ModeEdit); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("edit on read-only store: %v, want ErrReadOnly", err)
	}
	if !IsReadOnly(errors.Join(ErrReadOnly)) {
		t.Fatal("IsReadOnly misses a wrapped ErrReadOnly")
	}
	for _, mode := range []Mode{ModeRead, ModeWrite, ModeApply} {
		h, err := s.Acquire("ro", mode)
		if err != nil {
			t.Fatalf("mode %d on read-only store: %v", mode, err)
		}
		h.Release()
	}

	// Apply actually mutates: a threshold move through ModeApply changes
	// the session like any other write.
	h, err := s.Acquire("ro", ModeApply)
	if err != nil {
		t.Fatal(err)
	}
	before := h.Session().MatchCount()
	if err := wal.Apply(h.Session(), wal.Record{Op: "set_threshold", Rule: 1, Pred: 0, Threshold: 0.05}); err != nil {
		h.Release()
		t.Fatal(err)
	}
	after := h.Session().MatchCount()
	h.Release()
	if after <= before {
		t.Fatalf("relaxing r2 through ModeApply did not grow matches (%d -> %d)", before, after)
	}

	s.SetReadOnly(false)
	h, err = s.Acquire("ro", ModeEdit)
	if err != nil {
		t.Fatalf("edit after clearing read-only: %v", err)
	}
	h.Release()
}

// TestTenantQuota proves the per-tenant quota sums edits across every
// session the tenant owns, separately from the per-session quota, and
// that ModeApply never charges it.
func TestTenantQuota(t *testing.T) {
	s := New(Config{})
	for _, name := range []string{"t1a", "t1b"} {
		sess, a, b := buildSession(t)
		if err := s.AdmitTenant(name, "acme", sess, a, b); err != nil {
			t.Fatal(err)
		}
	}
	sess, a, b := buildSession(t)
	if err := s.AdmitTenant("other", "globex", sess, a, b); err != nil {
		t.Fatal(err)
	}
	s.SetTenantQuota(3)

	// Three edits spread over acme's two sessions exhaust the tenant.
	for _, name := range []string{"t1a", "t1b", "t1a"} {
		h, err := s.Acquire(name, ModeEdit)
		if err != nil {
			t.Fatalf("edit %s under quota: %v", name, err)
		}
		h.Release()
	}
	if _, err := s.Acquire("t1b", ModeEdit); !errors.Is(err, ErrTenantQuota) {
		t.Fatalf("4th acme edit: %v, want ErrTenantQuota", err)
	}
	if !IsQuota(ErrTenantQuota) {
		t.Fatal("ErrTenantQuota not classified as a quota error")
	}
	if got := s.TenantEdits("acme"); got != 3 {
		t.Fatalf("acme edits = %d, want 3", got)
	}

	// A different tenant is unaffected; the apply path charges nobody.
	h, err := s.Acquire("other", ModeEdit)
	if err != nil {
		t.Fatalf("globex edit: %v", err)
	}
	h.Release()
	h, err = s.Acquire("t1a", ModeApply)
	if err != nil {
		t.Fatalf("apply on exhausted tenant: %v", err)
	}
	h.Release()
	if got := s.TenantEdits("acme"); got != 3 {
		t.Fatalf("acme edits after apply = %d, want 3", got)
	}

	// The lifecycle view carries the tenant accounting for /stats.
	h, err = s.Acquire("t1a", ModeRead)
	if err != nil {
		t.Fatal(err)
	}
	lc := h.Lifecycle()
	h.Release()
	if lc.Tenant != "acme" || lc.TenantEdits != 3 || lc.MaxTenantEdits != 3 {
		t.Fatalf("lifecycle tenant view = %+v", lc)
	}
}

// TestHandleWalFrames proves the replication read surface on a durable
// handle: frames for seq > from parse back to the journaled records,
// a caught-up cursor yields no frames, and a cursor behind the
// snapshot reports rotation.
func TestHandleWalFrames(t *testing.T) {
	s := newDurableStore(t, Config{})
	admit(t, s, "w")
	// Journal three edits.
	for i := 0; i < 3; i++ {
		h, err := s.Acquire("w", ModeEdit)
		if err != nil {
			t.Fatal(err)
		}
		if err := wal.Apply(h.Session(), wal.Record{Op: "set_threshold", Rule: 1, Pred: 0, Threshold: 0.5}); err != nil {
			t.Fatal(err)
		}
		h.RecordEdit(wal.Record{Op: "set_threshold", Rule: 1, Pred: 0, Threshold: 0.5})
		h.Release()
	}
	h, err := s.Acquire("w", ModeRead)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Release()
	if h.Seq() != 3 || h.SnapshotSeq() != 0 {
		t.Fatalf("seq=%d snapshotSeq=%d, want 3/0", h.Seq(), h.SnapshotSeq())
	}
	frames, last, err := h.WalFrames(1)
	if err != nil {
		t.Fatal(err)
	}
	if last != 3 {
		t.Fatalf("last = %d, want 3", last)
	}
	log := parseFrames(t, frames)
	if len(log) != 2 || log[0].Seq != 2 || log[1].Seq != 3 {
		t.Fatalf("frames decoded to %+v, want seqs 2,3", log)
	}
	if frames, last, err = h.WalFrames(3); err != nil || len(frames) != 0 || last != 3 {
		t.Fatalf("caught-up cursor: frames=%d last=%d err=%v", len(frames), last, err)
	}
	a, b, err := h.BaseTables()
	if err != nil || len(a) == 0 || len(b) == 0 {
		t.Fatalf("base tables: %d/%d bytes, err=%v", len(a), len(b), err)
	}
}

func parseFrames(t *testing.T, frames []byte) []wal.Record {
	t.Helper()
	recs, err := wal.DecodeFrames(frames)
	if err != nil {
		t.Fatal(err)
	}
	return recs
}
