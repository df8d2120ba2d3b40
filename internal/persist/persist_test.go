package persist

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"rulematch/internal/faultio"

	"rulematch/internal/block"
	"rulematch/internal/core"
	"rulematch/internal/incremental"
	"rulematch/internal/rule"
	"rulematch/internal/sim"
	"rulematch/internal/table"
)

func buildTables(t *testing.T) (*table.Table, *table.Table, []table.Pair) {
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
	var pairs []table.Pair
	for i := range rowsA {
		for j := range rowsB {
			pairs = append(pairs, table.Pair{A: int32(i), B: int32(j)})
		}
	}
	return a, b, pairs
}

const sessionFunc = `
rule r1: jaro_winkler(name, name) >= 0.9 and exact_match(city, city) >= 1
rule r2: trigram(name, name) >= 0.75
`

func buildSession(t *testing.T) (*incremental.Session, *table.Table, *table.Table) {
	t.Helper()
	a, b, pairs := buildTables(t)
	f, err := rule.ParseFunction(sessionFunc)
	if err != nil {
		t.Fatal(err)
	}
	c, err := core.Compile(f, sim.Standard(), a, b)
	if err != nil {
		t.Fatal(err)
	}
	s := incremental.NewSession(c, pairs)
	mustRun(t, s)
	return s, a, b
}

// mustRun runs the session's full materializing run.
func mustRun(t testing.TB, s *incremental.Session) {
	t.Helper()
	if err := s.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	s, a, b := buildSession(t)
	// Mutate a bit so the snapshot is not just the initial state.
	if err := s.SetThreshold(1, 0, 0.6); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Save(&buf, s); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf, sim.Standard(), a, b)
	if err != nil {
		t.Fatal(err)
	}
	// Same function.
	if got.M.C.Function().String() != s.M.C.Function().String() {
		t.Errorf("function mismatch:\n%s\nvs\n%s", got.M.C.Function(), s.M.C.Function())
	}
	// Same match marks and state.
	if !got.St.Matched.Equal(s.St.Matched) {
		t.Error("matched bitmaps differ")
	}
	for ri := range s.St.RuleTrue {
		if !got.St.RuleTrue[ri].Equal(s.St.RuleTrue[ri]) {
			t.Errorf("rule %d bitmap differs", ri)
		}
	}
	// Memo contents restored: a re-run computes nothing.
	before := got.M.Stats
	mustRun(t, got)
	if computed := got.M.Stats.FeatureComputes - before.FeatureComputes; computed != 0 {
		t.Errorf("restored session recomputed %d features", computed)
	}
	// Restored state remains consistent for incremental ops.
	if err := got.Verify(); err != nil {
		t.Fatal(err)
	}
	r, _ := rule.ParseRule("r3: soundex(name, name) >= 0.5")
	if err := got.AddRule(r); err != nil {
		t.Fatal(err)
	}
	if err := got.Verify(); err != nil {
		t.Fatalf("after incremental op on restored session: %v", err)
	}
}

// TestSaveLoadAfterDuplicateFeatureAdds is the regression test for the
// AddPredicate/Canonicalize divergence: adding predicates over features
// a rule already bounds used to append them verbatim, so the reloaded
// (re-canonicalized) function had fewer predicates than the snapshot
// had bitmaps and Load failed with "rule N has X predicate bitmaps for
// Y predicates". AddPredicate now merges into the canonical group, so
// the durable round trip must survive a burst of duplicate-feature
// edits.
func TestSaveLoadAfterDuplicateFeatureAdds(t *testing.T) {
	s, a, b := buildSession(t)
	for _, src := range []string{
		"trigram(name, name) >= 0.8",       // stricter: merges into r2's lower bound
		"trigram(name, name) >= 0.6",       // weaker: no-op
		"trigram(name, name) <= 0.99",      // opposite direction: joins the group
		"jaro_winkler(name, name) >= 0.95", // stricter: merges into r1
	} {
		p, err := rule.ParsePredicate(src)
		if err != nil {
			t.Fatal(err)
		}
		ri := 1
		if strings.HasPrefix(src, "jaro") {
			ri = 0
		}
		if err := s.AddPredicate(ri, p); err != nil {
			t.Fatalf("add %s: %v", src, err)
		}
	}
	if err := s.Verify(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Save(&buf, s); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf, sim.Standard(), a, b)
	if err != nil {
		t.Fatalf("reload after duplicate-feature adds: %v", err)
	}
	if got.M.C.Function().String() != s.M.C.Function().String() {
		t.Errorf("function mismatch:\n%s\nvs\n%s", got.M.C.Function(), s.M.C.Function())
	}
	if !got.St.Matched.Equal(s.St.Matched) {
		t.Error("matched bitmaps differ")
	}
	for ri := range s.St.PredFalse {
		for pj := range s.St.PredFalse[ri] {
			if !got.St.PredFalse[ri][pj].Equal(s.St.PredFalse[ri][pj]) {
				t.Errorf("rule %d predicate %d false set differs", ri, pj)
			}
		}
	}
	if err := got.Verify(); err != nil {
		t.Fatalf("restored session inconsistent: %v", err)
	}
}

// A session bootstrapped in parallel must survive the snapshot
// round-trip exactly like a serial one: same state bytes, warm memo,
// and full invariant validation on the restored session.
func TestSaveLoadParallelBuiltSession(t *testing.T) {
	a, b, pairs := buildTables(t)
	f, err := rule.ParseFunction(sessionFunc)
	if err != nil {
		t.Fatal(err)
	}
	c, err := core.Compile(f, sim.Standard(), a, b)
	if err != nil {
		t.Fatal(err)
	}
	s := incremental.NewSession(c, pairs)
	s.M.Workers = 4
	mustRun(t, s)
	var buf bytes.Buffer
	if err := Save(&buf, s); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf, sim.Standard(), a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !got.St.Equal(s.St) {
		t.Error("restored state differs from parallel-built state")
	}
	if err := got.VerifyDeep(); err != nil {
		t.Fatalf("restored session invalid: %v", err)
	}
	// Memo restored warm: a re-run computes nothing.
	before := got.M.Stats
	mustRun(t, got)
	if computed := got.M.Stats.FeatureComputes - before.FeatureComputes; computed != 0 {
		t.Errorf("restored session recomputed %d features", computed)
	}
	// And the restored session accepts another sharded run plus
	// incremental ops.
	got.M.Workers = 2
	mustRun(t, got)
	if !got.St.Equal(s.St) {
		t.Error("parallel re-run on restored session changed state")
	}
	r, _ := rule.ParseRule("r3: soundex(name, name) >= 0.5")
	if err := got.AddRule(r); err != nil {
		t.Fatal(err)
	}
	if err := got.VerifyDeep(); err != nil {
		t.Fatalf("after incremental op on restored session: %v", err)
	}
}

// TestSaveLoadEngineInvariant pins that the snapshot is independent of
// the whole-run path: a session's batch run and the pair-at-a-time
// Match oracle produce equal state, and a round-tripped session re-runs
// on both paths with a fully warm memo.
func TestSaveLoadEngineInvariant(t *testing.T) {
	a, b, pairs := buildTables(t)
	f, err := rule.ParseFunction(sessionFunc)
	if err != nil {
		t.Fatal(err)
	}
	c, err := core.Compile(f, sim.Standard(), a, b)
	if err != nil {
		t.Fatal(err)
	}
	s := incremental.NewSession(c, pairs)
	mustRun(t, s)
	want := core.NewMatcher(c, pairs).Match()
	if !s.St.Equal(want) {
		t.Fatal("batch-built session state differs from Match")
	}

	a, b, _ = buildTables(t)
	var buf bytes.Buffer
	if err := Save(&buf, s); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf, sim.Standard(), a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !got.St.Equal(want) {
		t.Error("restored state differs from Match")
	}
	// Re-run the restored snapshot on both paths: the warm memo
	// satisfies every lookup, so nothing is recomputed.
	before := got.M.Stats
	if !got.M.Match().Equal(want) {
		t.Error("Match over the restored memo changed state")
	}
	mustRun(t, got)
	if !got.St.Equal(want) {
		t.Error("Run over the restored memo changed state")
	}
	if computed := got.M.Stats.FeatureComputes - before.FeatureComputes; computed != 0 {
		t.Errorf("restored session recomputed %d features", computed)
	}
	if err := got.VerifyDeep(); err != nil {
		t.Fatal(err)
	}
}

// TestSaveLoadProfileModeInvariant pins that the snapshot is also
// independent of the profile cache that built the session: a
// profile-less run (raw Fn.Sim) and a profiled run produce
// byte-identical snapshots, and a restored snapshot replays with a
// fully warm memo — zero recomputes — with the cache on or off.
func TestSaveLoadProfileModeInvariant(t *testing.T) {
	build := func(profiles bool) (*incremental.Session, []byte) {
		a, b, pairs := buildTables(t)
		f, err := rule.ParseFunction(sessionFunc)
		if err != nil {
			t.Fatal(err)
		}
		c, err := core.Compile(f, sim.Standard(), a, b)
		if err != nil {
			t.Fatal(err)
		}
		if profiles {
			c.EnableProfileCache()
		}
		s := incremental.NewSession(c, pairs)
		mustRun(t, s)
		var buf bytes.Buffer
		if err := Save(&buf, s); err != nil {
			t.Fatal(err)
		}
		return s, buf.Bytes()
	}
	plain, plainBytes := build(false)
	_, profiledBytes := build(true)
	if !bytes.Equal(plainBytes, profiledBytes) {
		t.Error("profiled snapshot differs from profile-less snapshot")
	}

	// Replay the profiled snapshot with the cache on and off: the warm
	// memo satisfies every lookup, so nothing is recomputed.
	for _, profiles := range []bool{true, false} {
		a, b, _ := buildTables(t)
		got, err := Load(bytes.NewReader(profiledBytes), sim.Standard(), a, b)
		if err != nil {
			t.Fatal(err)
		}
		if profiles {
			got.M.C.EnableProfileCache()
		}
		before := got.M.Stats
		mustRun(t, got)
		if computed := got.M.Stats.FeatureComputes - before.FeatureComputes; computed != 0 {
			t.Errorf("profiles=%v: restored session recomputed %d features", profiles, computed)
		}
		if !got.St.Equal(plain.St) {
			t.Errorf("profiles=%v: replay state differs", profiles)
		}
		if err := got.VerifyDeep(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestSaveRequiresRun(t *testing.T) {
	a, b, pairs := buildTables(t)
	f, _ := rule.ParseFunction(sessionFunc)
	c, err := core.Compile(f, sim.Standard(), a, b)
	if err != nil {
		t.Fatal(err)
	}
	s := incremental.NewSession(c, pairs)
	if err := Save(&bytes.Buffer{}, s); err == nil {
		t.Error("saving an un-run session accepted")
	}
}

func TestLoadRejectsWrongTables(t *testing.T) {
	s, a, b := buildSession(t)
	var buf bytes.Buffer
	if err := Save(&buf, s); err != nil {
		t.Fatal(err)
	}
	other := table.MustNew("OTHER", a.Attrs)
	if _, err := Load(bytes.NewReader(buf.Bytes()), sim.Standard(), other, b); err == nil {
		t.Error("snapshot loaded against a differently-named table")
	}
	// Truncated tables: pairs out of range.
	short := table.MustNew("A", a.Attrs)
	short.Append("a0", "x", "y")
	if _, err := Load(bytes.NewReader(buf.Bytes()), sim.Standard(), short, b); err == nil {
		t.Error("snapshot loaded against truncated table")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	_, a, b := buildSession(t)
	if _, err := Load(bytes.NewReader([]byte("not a gob stream")), sim.Standard(), a, b); err == nil {
		t.Error("garbage stream accepted")
	}
}

// TestLoadHeaderClaimBoundsAllocation pins that a snapshot header is
// not trusted for sizing: a header claiming a 1 GiB payload,
// followed by 1 KiB, must fail as a truncated payload after allocating
// in proportion to the 1 KiB actually present — not the 1 GiB claimed.
func TestLoadHeaderClaimBoundsAllocation(t *testing.T) {
	_, a, b := buildSession(t)
	var hdr [16]byte
	copy(hdr[:8], magic)
	binary.LittleEndian.PutUint32(hdr[8:12], maxPayloadBytes)
	input := append(hdr[:], bytes.Repeat([]byte{0x5a}, 1024)...)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Load(bytes.NewReader(input), sim.Standard(), a, b)
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "truncated payload") || !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("Load = %v, want the truncated-payload error", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Errorf("Load allocated %d bytes for a %d-byte input", grew, len(input))
	}
}

// TestReadPayloadChunks drives the payload reader across its chunk
// boundaries: a whole payload reads back byte-exact with its CRC-32C,
// and a stream that ends early — mid-chunk or on a chunk boundary — is
// a truncated payload.
func TestReadPayloadChunks(t *testing.T) {
	for _, n := range []int{1, payloadChunk - 1, payloadChunk, payloadChunk + 1, 3*payloadChunk + 5} {
		data := make([]byte, n)
		for i := range data {
			data[i] = byte(i * 7)
		}
		got, sum, err := readPayload(bytes.NewReader(data), n)
		if err != nil {
			t.Fatalf("n=%d: readPayload: %v", n, err)
		}
		if !bytes.Equal(got, data) || sum != crc32.Checksum(data, castagnoli) {
			t.Fatalf("n=%d: read back %d bytes with CRC %08x; want the %d bytes with CRC %08x", n, len(got), sum, n, crc32.Checksum(data, castagnoli))
		}
		for _, short := range []int{0, n - 1, min(n-1, payloadChunk)} {
			_, _, err := readPayload(bytes.NewReader(data[:short]), n)
			if err == nil || !strings.Contains(err.Error(), "truncated payload") || !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("n=%d, %d bytes present: readPayload err = %v, want a truncated payload", n, short, err)
			}
		}
	}
}

func TestSaveLoadFile(t *testing.T) {
	s, a, b := buildSession(t)
	path := t.TempDir() + "/session.gob"
	if err := SaveFile(path, s); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFile(path, sim.Standard(), a, b)
	if err != nil {
		t.Fatal(err)
	}
	if got.MatchCount() != s.MatchCount() {
		t.Errorf("match count %d, want %d", got.MatchCount(), s.MatchCount())
	}
}

func TestSaveLoadFileErrors(t *testing.T) {
	s, a, b := buildSession(t)
	if err := SaveFile("/nonexistent-dir/s.gob", s); err == nil {
		t.Error("save to bad path accepted")
	}
	if _, err := LoadFile("/nonexistent-dir/s.gob", sim.Standard(), a, b); err == nil {
		t.Error("load from bad path accepted")
	}
}

func TestLoadRejectsRuleMismatch(t *testing.T) {
	// A snapshot whose function re-parses fine but whose bitmaps no
	// longer line up cannot happen through the public API (the function
	// is serialized alongside the bitmaps), so exercise the table-size
	// check instead with extra records: loading against *larger* tables
	// is fine (pairs still in range).
	s, a, b := buildSession(t)
	var buf bytes.Buffer
	if err := Save(&buf, s); err != nil {
		t.Fatal(err)
	}
	bigger := table.MustNew("A", a.Attrs)
	for _, r := range a.Records {
		bigger.Append(r.ID, r.Values...)
	}
	bigger.Append("extra", "new record", "nowhere")
	got, err := Load(bytes.NewReader(buf.Bytes()), sim.Standard(), bigger, b)
	if err != nil {
		t.Fatalf("load against superset table: %v", err)
	}
	if got.MatchCount() != s.MatchCount() {
		t.Error("superset load changed matches")
	}
}

// --- durability-layer tests (snapshot v3, atomic SaveFile) ---

func TestSaveEmitsV3LoadInfoReportsVersion(t *testing.T) {
	s, a, b := buildSession(t)
	var buf bytes.Buffer
	if err := Save(&buf, s, WithSeq(7)); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(buf.Bytes(), []byte(magic)) {
		t.Fatal("default Save did not emit the v3 magic")
	}
	got, info, err := LoadInfo(bytes.NewReader(buf.Bytes()), sim.Standard(), a, b)
	if err != nil {
		t.Fatal(err)
	}
	if info.Version != 3 || info.Seq != 7 {
		t.Fatalf("info = %+v, want version 3 seq 7", info)
	}
	if !got.St.Equal(s.St) {
		t.Error("v3 round-trip state differs")
	}
}

// v2Snapshot is a snapshot of buildSession's session written in format
// v2, whose payload was a gob stream behind the same frame.
const v2Snapshot = "testdata/snapshot-v2.em"

// TestLoadLegacyV1Bytes pins that snapshots in the older formats are
// refused, not decoded: a v2 file, and its bare gob payload — an
// unframed v1 stream, with no length bound and no checksum.
func TestLoadLegacyV1Bytes(t *testing.T) {
	_, a, b := buildSession(t)
	v2, err := os.ReadFile(v2Snapshot)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, data, want string
	}{
		{"v2", string(v2), `format "EMSNAP2\n" is no longer read`},
		{"unframed v1", string(v2[headerSize:]), "not a framed snapshot"},
	} {
		got, _, err := LoadInfo(strings.NewReader(tc.data), sim.Standard(), a, b)
		if err == nil {
			t.Fatalf("%s snapshot loaded (%d pairs)", tc.name, len(got.M.Pairs))
		}
		if !strings.HasPrefix(err.Error(), "persist: ") || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: err = %v, want a persist error naming %q", tc.name, err, tc.want)
		}
	}
	if _, _, err := ReadNames(v2Snapshot); err == nil || !strings.Contains(err.Error(), "no longer read") {
		t.Fatalf("ReadNames(v2) err = %v, want the format refusal", err)
	}
}

// encodeFramed returns snap framed as a snapshot file, with a valid
// checksum over whatever the payload holds.
func encodeFramed(t testing.TB, snap *snapshot) []byte {
	t.Helper()
	data, err := frame(appendPayload(make([]byte, headerSize), snap))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// reframe builds a snapshot of buildSession's session, mutates it and
// returns it framed with a *valid* CRC over the corrupt payload, so the
// structural validation — not the checksum — must catch it.
func reframe(t *testing.T, mutate func(*snapshot)) []byte {
	t.Helper()
	s, _, _ := buildSession(t)
	snap, err := buildSnapshot(s, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	mutate(snap)
	return encodeFramed(t, snap)
}

func TestLoadRejectsDuplicateMemoRows(t *testing.T) {
	_, a, b := buildSession(t)
	data := reframe(t, func(snap *snapshot) {
		if len(snap.Memo) == 0 {
			t.Fatal("test session has no memo rows")
		}
		// Next to its twin, where the canonical order puts it.
		snap.Memo = slices.Insert(snap.Memo, 1, snap.Memo[0])
	})
	_, err := Load(bytes.NewReader(data), sim.Standard(), a, b)
	if err == nil || !strings.Contains(err.Error(), "duplicate memo row") {
		t.Fatalf("duplicate memo row: err = %v", err)
	}
}

// TestLoadCorruptInputsTable truncates a valid v2 snapshot at every
// 1KiB boundary (and a few unaligned offsets) and flips one bit in
// every section of the framing; Load must always return a descriptive
// error, never a mis-sized session.
func TestLoadCorruptInputsTable(t *testing.T) {
	s, a, b := buildSession(t)
	var buf bytes.Buffer
	if err := Save(&buf, s); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()

	var offsets []int
	for off := 0; off < len(valid); off += 1024 {
		offsets = append(offsets, off)
	}
	offsets = append(offsets, 1, 7, 8, 15, 16, 17, len(valid)-1)
	for _, off := range offsets {
		if off >= len(valid) {
			continue
		}
		got, err := Load(bytes.NewReader(valid[:off]), sim.Standard(), a, b)
		if err == nil {
			t.Errorf("truncate at %d: loaded a session (%d pairs) from a torn snapshot", off, len(got.M.Pairs))
		}
	}

	// One bit flip per section: magic, length, CRC, and payload bytes
	// spread across the gob stream. The CRC catches every payload
	// flip; the header fields catch themselves.
	flips := []int{0, 5, 8, 11, 12, 15, 16, 16 + (len(valid)-16)/4, 16 + (len(valid)-16)/2, len(valid) - 1}
	for _, off := range flips {
		mut := append([]byte(nil), valid...)
		mut[off] ^= 0x10
		got, err := Load(bytes.NewReader(mut), sim.Standard(), a, b)
		if err == nil {
			t.Errorf("bit flip at %d: loaded a session (%d pairs) from a corrupt snapshot", off, len(got.M.Pairs))
		}
	}
}

// TestSaveFileAtomicCrashSweep proves the temp+fsync+rename protocol:
// with a good snapshot already on disk, a crash at *any* filesystem
// operation during a re-save leaves a loadable file holding either
// the old or the new complete state — never a torn one.
func TestSaveFileAtomicCrashSweep(t *testing.T) {
	old, a, b := buildSession(t)
	fresh, _, _ := buildSession(t)
	if err := fresh.SetThreshold(1, 0, 0.6); err != nil {
		t.Fatal(err)
	}

	for _, mode := range []faultio.Mode{faultio.ModeCrash, faultio.ModeShortWrite} {
		dir := t.TempDir()
		path := filepath.Join(dir, "session.em")
		if err := SaveFile(path, old); err != nil {
			t.Fatal(err)
		}
		// Dry run to learn the operation count of a save.
		dry := &faultio.Injector{Base: faultio.OS}
		if err := SaveFileFS(dry, path, fresh); err != nil {
			t.Fatal(err)
		}
		if err := SaveFile(path, old); err != nil { // restore the old state
			t.Fatal(err)
		}
		total := dry.Ops()
		if total < 5 {
			t.Fatalf("suspiciously few ops: %d", total)
		}
		for at := 1; at <= total; at++ {
			inj := &faultio.Injector{Base: faultio.OS, Mode: mode, At: at}
			err := SaveFileFS(inj, path, fresh)
			got, lerr := LoadFile(path, sim.Standard(), a, b)
			if lerr != nil {
				t.Fatalf("mode=%v at=%d: snapshot unloadable after crash: %v", mode, at, lerr)
			}
			switch {
			case got.St.Equal(old.St):
				// Crash before publish: old state survived intact.
			case got.St.Equal(fresh.St):
				if err != nil && at < total {
					// A failed save may still have published (crash after
					// rename, e.g. during the directory sync) — that is
					// fine; the state is complete either way.
					_ = err
				}
			default:
				t.Fatalf("mode=%v at=%d: snapshot is neither old nor new state", mode, at)
			}
			// Reset to the old snapshot for the next crash point.
			if err := SaveFile(path, old); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestSaveFileLeavesNoTempOnError pins that a failed save cleans up
// its temporary file.
func TestSaveFileTempCleanup(t *testing.T) {
	s, _, _ := buildSession(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "snap.em")
	inj := &faultio.Injector{Base: faultio.OS, Mode: faultio.ModeFail, At: 3} // the Sync
	if err := SaveFileFS(inj, path, s); err == nil {
		t.Fatal("injected sync failure not reported")
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Errorf("temp file left behind: %v", err)
	}
}

// TestSaveLoadDataStateRoundTrip snapshots a session after record
// appends and deletes, then reloads it from the *base* tables only:
// the extras, tombstones and blocker must come back from the snapshot.
func TestSaveLoadDataStateRoundTrip(t *testing.T) {
	a, b, _ := buildTables(t)
	blk := block.AttrEquivalence{Attr: "city"}
	pairs, err := blk.Pairs(a, b)
	if err != nil {
		t.Fatal(err)
	}
	f, err := rule.ParseFunction(sessionFunc)
	if err != nil {
		t.Fatal(err)
	}
	c, err := core.Compile(f, sim.Standard(), a, b)
	if err != nil {
		t.Fatal(err)
	}
	s := incremental.NewSession(c, pairs)
	s.Blocker = blk
	mustRun(t, s)

	if err := s.AddRecords(
		[]table.Record{{ID: "a4", Values: []string{"wei chen", "milwaukee"}}},
		[]table.Record{{ID: "b4", Values: []string{"wei chen jr", "milwaukee"}}},
	); err != nil {
		t.Fatal(err)
	}
	if err := s.DeleteRecords([]string{"a1"}, nil); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := Save(&buf, s); err != nil {
		t.Fatal(err)
	}
	raw := append([]byte(nil), buf.Bytes()...)
	baseA, baseB, _ := buildTables(t) // fresh base tables, no extras
	got, err := Load(&buf, sim.Standard(), baseA, baseB)
	if err != nil {
		t.Fatal(err)
	}
	if got.M.C.A.Len() != 5 || got.M.C.B.Len() != 5 {
		t.Fatalf("reloaded table lengths %d/%d, want 5/5", got.M.C.A.Len(), got.M.C.B.Len())
	}
	if got.M.C.A.NumDeleted() != 1 {
		t.Fatalf("reloaded tombstones %d, want 1", got.M.C.A.NumDeleted())
	}
	if ba, bb := got.BaseLens(); ba != 4 || bb != 4 {
		t.Fatalf("reloaded base lengths %d/%d, want 4/4", ba, bb)
	}
	if got.LivePairCount() != s.LivePairCount() {
		t.Fatalf("live pairs %d, want %d", got.LivePairCount(), s.LivePairCount())
	}
	var buf2 bytes.Buffer
	if err := Save(&buf2, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, buf2.Bytes()) {
		t.Fatal("re-saved snapshot is not byte-identical")
	}
	if err := got.VerifyDeep(); err != nil {
		t.Fatal(err)
	}
	// The blocker spec round-tripped: the reloaded session keeps
	// accepting appends and agrees with the live one.
	more := []table.Record{{ID: "b5", Values: []string{"mary garcia", "chicago"}}}
	if err := got.AddRecords(nil, more); err != nil {
		t.Fatalf("append on reloaded session: %v", err)
	}
	if err := s.AddRecords(nil, more); err != nil {
		t.Fatal(err)
	}
	if got.MatchCount() != s.MatchCount() {
		t.Fatalf("post-append matches %d, want %d", got.MatchCount(), s.MatchCount())
	}
}

// releasedSession streams appends and deletes into a city-blocked
// session until a delete reclaims the dead pairs and releases the
// tombstoned records: base records a1 and b2, appended records a4 and
// b4. It returns the session and the appended records' original values.
func releasedSession(t *testing.T) (*incremental.Session, map[string][]string) {
	t.Helper()
	a, b, _ := buildTables(t)
	blk := block.AttrEquivalence{Attr: "city"}
	pairs, err := blk.Pairs(a, b)
	if err != nil {
		t.Fatal(err)
	}
	f, err := rule.ParseFunction(sessionFunc)
	if err != nil {
		t.Fatal(err)
	}
	c, err := core.Compile(f, sim.Standard(), a, b)
	if err != nil {
		t.Fatal(err)
	}
	s := incremental.NewSessionConfig(c, pairs, core.Config{Workers: 1})
	s.Blocker = blk
	mustRun(t, s)
	orig := map[string][]string{
		"a4": {"maria garcia", "chicago"},
		"b4": {"wei chen jr", "milwaukee"},
	}
	if err := s.AddRecords(
		[]table.Record{{ID: "a4", Values: orig["a4"]}},
		[]table.Record{{ID: "b4", Values: orig["b4"]}},
	); err != nil {
		t.Fatal(err)
	}
	if err := s.DeleteRecords([]string{"a1"}, nil); err != nil {
		t.Fatal(err)
	}
	if s.LastOp.PairsReclaimed != 0 {
		t.Fatal("fixture reclaimed on its first delete")
	}
	if err := s.DeleteRecords([]string{"a4"}, []string{"b4", "b2"}); err != nil {
		t.Fatal(err)
	}
	if s.LastOp.PairsReclaimed == 0 {
		t.Fatal("fixture did not reclaim")
	}
	for _, id := range []string{"a1", "a4"} {
		i, _ := s.M.C.A.RecordByID(id)
		if v := s.M.C.A.Value(i, 0); v != "" {
			t.Fatalf("released record %s reads %q", id, v)
		}
	}
	return s, orig
}

// reclaimAgain appends b5 and deletes b0 and b5, a delete that
// reclaims dead pairs and so releases every pending tombstone.
func reclaimAgain(t *testing.T, s *incremental.Session) {
	t.Helper()
	if err := s.AddRecords(nil, []table.Record{{ID: "b5", Values: []string{"matt richardson", "seattle"}}}); err != nil {
		t.Fatal(err)
	}
	if err := s.DeleteRecords(nil, []string{"b0", "b5"}); err != nil {
		t.Fatal(err)
	}
	if s.LastOp.PairsReclaimed == 0 {
		t.Fatal("second delete did not reclaim")
	}
}

// TestSaveLoadAfterRelease: a snapshot taken after records were
// released stores released appended records as empty strings, reloads
// them as tombstones, and re-saves byte-identically. A snapshot in the
// layout written before records were released — the same fields, the
// tombstoned appended records still carrying their values — loads too,
// and once both sessions reclaim again they serialize to the same
// bytes.
func TestSaveLoadAfterRelease(t *testing.T) {
	s, orig := releasedSession(t)
	var buf bytes.Buffer
	if err := Save(&buf, s); err != nil {
		t.Fatal(err)
	}
	raw := append([]byte(nil), buf.Bytes()...)
	snap, err := decodeSnapshot(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range append(append([]table.Record(nil), snap.ExtraA...), snap.ExtraB...) {
		for _, v := range r.Values {
			if v != "" {
				t.Fatalf("released appended record %s serialized value %q", r.ID, v)
			}
		}
	}

	load := func(data []byte) *incremental.Session {
		t.Helper()
		baseA, baseB, _ := buildTables(t)
		got, err := Load(bytes.NewReader(data), sim.Standard(), baseA, baseB)
		if err != nil {
			t.Fatal(err)
		}
		if err := got.VerifyDeep(); err != nil {
			t.Fatal(err)
		}
		if got.MatchCount() != s.MatchCount() {
			t.Fatalf("reloaded session holds %d matches, want %d", got.MatchCount(), s.MatchCount())
		}
		return got
	}
	got := load(raw)
	for _, id := range []string{"a1", "a4"} {
		if i, ok := got.M.C.A.RecordByID(id); !ok || !got.M.C.A.Deleted(i) {
			t.Fatalf("record %s did not reload as a tombstone", id)
		}
	}
	var again bytes.Buffer
	if err := Save(&again, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, again.Bytes()) {
		t.Fatal("snapshot taken after a release does not re-save byte-identically")
	}

	// The older layout: the appended tombstones keep their values.
	for i := range snap.ExtraA {
		snap.ExtraA[i].Values = orig[snap.ExtraA[i].ID]
	}
	for i := range snap.ExtraB {
		snap.ExtraB[i].Values = orig[snap.ExtraB[i].ID]
	}
	old := encodeFramed(t, snap)
	if bytes.Equal(old, raw) {
		t.Fatal("older-layout snapshot equals the released one; the fixture tests nothing")
	}
	prev := load(old)

	var want []byte
	for i, sess := range []*incremental.Session{s, got, prev} {
		reclaimAgain(t, sess)
		var out bytes.Buffer
		if err := Save(&out, sess); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			want = out.Bytes()
		} else if !bytes.Equal(out.Bytes(), want) {
			t.Fatalf("session %d serializes differently from the live one after the next reclamation", i)
		}
	}
}
