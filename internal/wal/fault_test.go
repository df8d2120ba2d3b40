package wal

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	"rulematch/internal/core"
	"rulematch/internal/faultio"
	"rulematch/internal/incremental"
	"rulematch/internal/persist"
	"rulematch/internal/rule"
	"rulematch/internal/sim"
	"rulematch/internal/table"
)

// editScript is the scripted 20-edit session the fault-injection
// sweep replays: every incremental operation kind appears, rules are
// added and removed, thresholds move both ways.
func editScript() []Record {
	return []Record{
		{Op: "set_threshold", Rule: 1, Pred: 0, Threshold: 0.6},
		{Op: "add_predicate", Rule: 1, Src: "jaccard(city, city) >= 0.2"},
		{Op: "tighten", Rule: 0, Pred: 0, Threshold: 0.92},
		{Op: "relax", Rule: 1, Pred: 1, Threshold: 0.1},
		{Op: "add_rule", Src: "rule r3: soundex(name, name) >= 0.5"},
		{Op: "set_threshold", Rule: 2, Pred: 0, Threshold: 0.6},
		{Op: "tighten", Rule: 1, Pred: 0, Threshold: 0.7},
		{Op: "remove_predicate", Rule: 1, Pred: 1},
		{Op: "add_predicate", Rule: 0, Src: "trigram(name, name) >= 0.3"},
		{Op: "relax", Rule: 0, Pred: 2, Threshold: 0.2},
		{Op: "remove_rule", Rule: 1},
		{Op: "add_rule", Src: "rule r4: jaccard(name, name) >= 0.4"},
		{Op: "tighten", Rule: 1, Pred: 0, Threshold: 0.7},
		{Op: "set_threshold", Rule: 2, Pred: 0, Threshold: 0.3},
		{Op: "add_predicate", Rule: 2, Src: "exact_match(city, city) >= 1"},
		{Op: "relax", Rule: 0, Pred: 0, Threshold: 0.88},
		{Op: "remove_predicate", Rule: 0, Pred: 2},
		{Op: "tighten", Rule: 2, Pred: 0, Threshold: 0.5},
		{Op: "remove_rule", Rule: 1},
		{Op: "set_threshold", Rule: 1, Pred: 1, Threshold: 0.5},
	}
}

// referenceStates returns, for every prefix length k of the script,
// the serialized state of an uncrashed session that applied exactly
// the first k edits.
func referenceStates(t *testing.T, script []Record) [][]byte {
	t.Helper()
	refs := make([][]byte, len(script)+1)
	for k := 0; k <= len(script); k++ {
		s, _, _ := buildSessionT(t)
		for _, rec := range script[:k] {
			if err := Apply(s, rec); err != nil {
				t.Fatalf("reference prefix %d: apply %+v: %v", k, rec, err)
			}
		}
		refs[k] = saveBytes(t, s)
	}
	return refs
}

// runStoredScript creates a store over fsys and pushes the script
// through it, stopping at the first persistence error (the simulated
// crash). It returns the error, if any.
func runStoredScript(fsys faultio.FS, dir string, compactAt int64, t *testing.T, script []Record) error {
	sess, a, b := buildSessionT(t)
	st, err := Create(fsys, dir, SyncPolicy{Mode: SyncAlways}, sess, a, b, 0)
	if err != nil {
		return err
	}
	st.CompactAt = compactAt
	defer st.Close()
	for _, rec := range script {
		if err := Apply(sess, rec); err != nil {
			t.Fatalf("in-memory apply failed (script bug): %+v: %v", rec, err)
		}
		if err := st.RecordEdit(sess, rec); err != nil {
			return err
		}
	}
	// Close explicitly so a fault injected during the final sync/close
	// surfaces; the deferred Close above is then a no-op.
	return st.Close()
}

// checkRecovery recovers dir and asserts the crash-consistency
// contract: if a snapshot file exists it must load (never torn, never
// checksum-invalid); recovery must reach some prefix k of the script
// whose state is byte-identical to the uncrashed reference; and the
// recovered session must verify against a from-scratch evaluation.
func checkRecovery(t *testing.T, dir string, refs [][]byte, label string) {
	t.Helper()
	snapPath := filepath.Join(dir, SnapshotFile)
	if _, err := os.Stat(snapPath); err != nil {
		if !os.IsNotExist(err) {
			t.Fatal(err)
		}
		// Crash before the first snapshot published: the session was
		// never created; recovery must fail cleanly.
		if _, _, err := Open(faultio.OS, dir, SyncPolicy{Mode: SyncAlways}, sim.Standard()); err == nil {
			t.Fatalf("%s: recovery succeeded without a snapshot", label)
		}
		return
	}
	// The published snapshot is never torn: it must load on its own.
	aT, bT := freshTables(t)
	if _, _, err := persist.LoadFileInfo(snapPath, sim.Standard(), aT, bT); err != nil {
		t.Fatalf("%s: published snapshot does not load: %v", label, err)
	}
	st, rec, err := Open(faultio.OS, dir, SyncPolicy{Mode: SyncAlways}, sim.Standard())
	if err != nil {
		t.Fatalf("%s: recovery failed: %v", label, err)
	}
	defer st.Close()
	k := st.Seq()
	if k > uint64(len(refs)-1) {
		t.Fatalf("%s: recovered seq %d beyond script length", label, k)
	}
	if !bytes.Equal(saveBytes(t, rec.Session), refs[k]) {
		t.Fatalf("%s: recovered state at seq %d is not byte-identical to the uncrashed reference", label, k)
	}
	if err := rec.Session.VerifyDeep(); err != nil {
		t.Fatalf("%s: recovered session failed verification: %v", label, err)
	}
}

// sweep runs the scripted session once per injected crash point and
// checks recovery after every one.
func sweep(t *testing.T, mode faultio.Mode, compactAt int64, label string) {
	script := editScript()
	refs := referenceStates(t, script)

	// Dry run to learn the operation count.
	dry := &faultio.Injector{Base: faultio.OS}
	if err := runStoredScript(dry, filepath.Join(t.TempDir(), "dry"), compactAt, t, script); err != nil {
		t.Fatalf("dry run failed: %v", err)
	}
	total := dry.Ops()
	if total < 20 {
		t.Fatalf("dry run counted only %d ops", total)
	}

	root := t.TempDir()
	for at := 1; at <= total; at++ {
		dir := filepath.Join(root, label, "at", itoa(at))
		inj := &faultio.Injector{Base: faultio.OS, Mode: mode, At: at}
		err := runStoredScript(inj, dir, compactAt, t, script)
		if err == nil {
			t.Fatalf("%s at=%d: no error despite injected fault", label, at)
		}
		checkRecovery(t, dir, refs, label+"/at="+itoa(at))
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// TestCrashSweep20Edits is the headline fault-injection sweep: for
// every filesystem operation of a scripted 20-edit durable session,
// simulate a kill at that operation and prove recovery lands on a
// byte-identical prefix state with no torn snapshot ever visible.
func TestCrashSweep20Edits(t *testing.T) {
	sweep(t, faultio.ModeCrash, 1<<30, "crash-journal")
}

// TestCrashSweepWithCompaction re-runs the sweep with compaction after
// every edit, so crash points land inside snapshot publication and
// journal rotation too.
func TestCrashSweepWithCompaction(t *testing.T) {
	sweep(t, faultio.ModeCrash, 1, "crash-compact")
}

// TestShortWriteSweep tears the active write in half at every write
// operation before killing the process: torn journal tails and torn
// temp snapshots must both be invisible after recovery.
func TestShortWriteSweep(t *testing.T) {
	sweep(t, faultio.ModeShortWrite, 1<<30, "tear-journal")
}

func TestShortWriteSweepWithCompaction(t *testing.T) {
	sweep(t, faultio.ModeShortWrite, 1, "tear-compact")
}

// TestJournalReplayEqualsFreshBatchRun pins the end-to-end journal
// semantics: replaying the full journal against a fresh session
// produces the same match bitmap as a from-scratch batch run of the
// final rule set.
func TestJournalReplayEqualsFreshBatchRun(t *testing.T) {
	script := editScript()
	dir := filepath.Join(t.TempDir(), "s")
	if err := runStoredScript(faultio.OS, dir, 1<<30, t, script); err != nil {
		t.Fatal(err)
	}
	_, rec, err := Open(faultio.OS, dir, SyncPolicy{Mode: SyncAlways}, sim.Standard())
	if err != nil {
		t.Fatal(err)
	}
	// From-scratch batch run of the final rule set.
	f, err := rule.ParseFunction(rec.Session.M.C.Function().String())
	if err != nil {
		t.Fatal(err)
	}
	a, b := freshTables(t)
	c, err := core.Compile(f, sim.Standard(), a, b)
	if err != nil {
		t.Fatal(err)
	}
	fresh := incremental.NewSession(c, rec.Session.M.Pairs)
	if err := fresh.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !fresh.St.Matched.Equal(rec.Session.St.Matched) {
		t.Fatal("journal replay match bitmap differs from a fresh batch run of the final rule set")
	}
}

// freshTables rebuilds the test tables without a session.
func freshTables(t *testing.T) (*table.Table, *table.Table) {
	_, a, b := buildSessionT(t)
	return a, b
}
