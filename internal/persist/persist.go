// Package persist saves and restores incremental matching sessions.
// The paper's maintainability goal (Section 1) asks that matching state
// survive between runs; a snapshot captures the matching function, the
// candidate pairs, the feature memo and the materialized bitmaps, so an
// analyst can stop and resume a debugging session without paying the
// cold-start cost again.
//
// A snapshot (format v2) is an 8-byte magic, a little-endian uint32
// payload length, a CRC-32C (Castagnoli) of the payload, then the gob
// payload. Truncation and corruption anywhere in the file are detected
// before any state is built. A stream without the magic is refused:
// the unframed raw-gob v1 format, which carried no length bound and no
// checksum, is no longer read.
//
// SaveFile is crash-safe: the snapshot is written to a temporary file
// in the destination directory, fsynced, atomically renamed over the
// destination, and the directory is fsynced — a crash at any point
// leaves either the old complete snapshot or the new complete one,
// never a torn file. The tables themselves are not stored — the caller
// reloads them (they are the analyst's input data) and Load verifies
// the snapshot is consistent with them.
package persist

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sort"

	"rulematch/internal/bitmap"
	"rulematch/internal/block"
	"rulematch/internal/core"
	"rulematch/internal/faultio"
	"rulematch/internal/incremental"
	"rulematch/internal/rule"
	"rulematch/internal/sim"
	"rulematch/internal/table"
)

const (
	// versionV2 marks CRC-framed snapshots. The Version field inside
	// the gob payload must agree with the outer framing.
	versionV2 = 2

	// magicV2 opens every framed snapshot. Eight bytes so the sniff
	// read is aligned and unambiguous: a raw gob stream of this
	// package's snapshot type can never start with these bytes.
	magicV2 = "EMSNAP2\n"

	// maxPayloadBytes is the format's payload size limit; a header
	// claiming more is corrupt. Decoding allocates by the bytes
	// actually read, never by the claim.
	maxPayloadBytes = 1 << 30
)

// castagnoli is the CRC-32C table used for snapshot and journal
// checksums (the same polynomial storage systems use — iSCSI, ext4).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// memoRow holds the memoized values of one feature, sparsely.
type memoRow struct {
	Feature rule.Feature
	Pairs   []int32
	Vals    []float64
}

// snapshot is the serialized form of a session.
type snapshot struct {
	Version   int
	TableA    string // table names, to catch obvious mix-ups
	TableB    string
	Function  string // DSL source; float thresholds round-trip exactly
	Pairs     []table.Pair
	Memo      []memoRow
	Matched   *bitmap.Bits
	RuleTrue  []*bitmap.Bits
	PredFalse [][]*bitmap.Bits
	Stats     core.Stats
	// Seq is the journal sequence number the snapshot covers: every
	// edit record with Seq <= this value is already folded into the
	// bitmaps and memo. Zero for standalone snapshots.
	Seq uint64
	// Epoch is the replication epoch the snapshot was written under
	// (see internal/wal): promotion of a replica bumps it, and a node
	// refuses to accept history from a lower epoch. Zero for standalone
	// snapshots and for files written before failover existed — gob
	// tolerates the added field in both directions.
	Epoch uint64

	// Data-side incrementality (all zero in snapshots written before
	// record ops existed; gob tolerates added fields both directions).
	// The caller reloads only the *base* tables; records appended
	// through Session.AddRecords are snapshot-authoritative extras.
	HasDataState bool
	BaseLenA     int
	BaseLenB     int
	ExtraA       []table.Record // records past BaseLenA, in append order
	ExtraB       []table.Record
	DeadA        []int32 // tombstoned record indices
	DeadB        []int32
	// BlockSpec re-creates the session's delta blocker on load so a
	// recovered session keeps accepting record appends. Empty when the
	// session had no blocker.
	BlockSpec string
}

// Info describes a loaded snapshot: which format it was read in, the
// journal sequence it covers and the replication epoch it was written
// under.
type Info struct {
	Version int
	Seq     uint64
	Epoch   uint64
}

// saveConfig collects the SaveOption knobs.
type saveConfig struct {
	fsync bool
	seq   uint64
	epoch uint64
}

// SaveOption tweaks Save/SaveFile behaviour.
type SaveOption func(*saveConfig)

// NoFsync skips the fsync calls in SaveFile. The write is still
// atomic with respect to process crashes (temp + rename), but the
// data may be lost on power failure. Has no effect on Save.
func NoFsync() SaveOption { return func(c *saveConfig) { c.fsync = false } }

// WithSeq records the journal sequence number the snapshot covers
// (see internal/wal). Only meaningful for v2 snapshots that live next
// to an edit journal.
func WithSeq(seq uint64) SaveOption { return func(c *saveConfig) { c.seq = seq } }

// WithEpoch records the replication epoch the snapshot was written
// under (see internal/wal). Durable per-session snapshots carry it so
// a recovered node knows which history it belongs to; interchange
// snapshots (the HTTP snapshot download, CLI saves) omit it so two
// nodes holding the same state at different epochs still serialize to
// identical bytes.
func WithEpoch(epoch uint64) SaveOption { return func(c *saveConfig) { c.epoch = epoch } }

// buildSnapshot assembles the serializable form of the session.
func buildSnapshot(s *incremental.Session, seq, epoch uint64) (*snapshot, error) {
	if s.St == nil {
		return nil, fmt.Errorf("persist: session has no materialized state; call Run first")
	}
	c := s.M.C
	snap := &snapshot{
		Version:   versionV2,
		TableA:    c.A.Name,
		TableB:    c.B.Name,
		Function:  c.Function().String(),
		Pairs:     s.M.Pairs,
		Matched:   s.St.Matched,
		RuleTrue:  s.St.RuleTrue,
		PredFalse: s.St.PredFalse,
		Stats:     s.M.Stats,
		Seq:       seq,
		Epoch:     epoch,
	}
	baseA, baseB := s.BaseLens()
	snap.BaseLenA, snap.BaseLenB = baseA, baseB
	snap.DeadA = c.A.DeletedIndices()
	snap.DeadB = c.B.DeletedIndices()
	if baseA < c.A.Len() {
		snap.ExtraA = c.A.Records[baseA:]
	}
	if baseB < c.B.Len() {
		snap.ExtraB = c.B.Records[baseB:]
	}
	snap.HasDataState = len(snap.ExtraA)+len(snap.ExtraB)+len(snap.DeadA)+len(snap.DeadB) > 0
	if s.Blocker != nil {
		spec, err := block.FormatSpec(s.Blocker)
		if err != nil {
			return nil, fmt.Errorf("persist: %w", err)
		}
		snap.BlockSpec = spec
	}
	if s.M.Memo != nil {
		for fi := range c.Features {
			row := memoRow{Feature: c.Features[fi].Feature}
			for pi := range s.M.Pairs {
				if v, ok := s.M.Memo.Get(fi, pi); ok {
					row.Pairs = append(row.Pairs, int32(pi))
					row.Vals = append(row.Vals, v)
				}
			}
			if len(row.Pairs) > 0 {
				snap.Memo = append(snap.Memo, row)
			}
		}
		// Canonical row order: a session's in-memory feature order
		// depends on its edit history, but two sessions holding the same
		// memo contents must serialize to identical bytes (the recovery
		// tests compare snapshots of a replayed session against a live
		// one). Feature keys are unique within a compiled function.
		sort.Slice(snap.Memo, func(i, j int) bool {
			return snap.Memo[i].Feature.Key() < snap.Memo[j].Feature.Key()
		})
	}
	return snap, nil
}

// writeFramed wraps an encoded payload in the v2 framing:
// magic | uint32 length | uint32 CRC-32C | payload.
func writeFramed(w io.Writer, payload []byte) error {
	var hdr [16]byte
	copy(hdr[:8], magicV2)
	binary.LittleEndian.PutUint32(hdr[8:12], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[12:16], crc32.Checksum(payload, castagnoli))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// Save writes the session snapshot to w in the v2 framed format. The
// session must have run (Session.Run) at least once.
func Save(w io.Writer, s *incremental.Session, opts ...SaveOption) error {
	cfg := saveConfig{fsync: true}
	for _, o := range opts {
		o(&cfg)
	}
	snap, err := buildSnapshot(s, cfg.seq, cfg.epoch)
	if err != nil {
		return err
	}
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(snap); err != nil {
		return err
	}
	if payload.Len() > maxPayloadBytes {
		return fmt.Errorf("persist: snapshot payload %d bytes exceeds the %d-byte format limit", payload.Len(), maxPayloadBytes)
	}
	return writeFramed(w, payload.Bytes())
}

// SaveFile writes the snapshot to a file crash-safely: it encodes in
// memory and publishes the bytes with faultio.WriteFileAtomic, so the
// previous snapshot at path stays intact until the new one is
// complete.
func SaveFile(path string, s *incremental.Session, opts ...SaveOption) error {
	return SaveFileFS(faultio.OS, path, s, opts...)
}

// SaveFileFS is SaveFile over an explicit filesystem — the seam the
// fault-injection tests (and internal/wal's compaction) use.
func SaveFileFS(fsys faultio.FS, path string, s *incremental.Session, opts ...SaveOption) error {
	cfg := saveConfig{fsync: true}
	for _, o := range opts {
		o(&cfg)
	}
	// Encode fully in memory first: an encoding error must not leave a
	// temp file behind, and a single Write keeps the on-disk step count
	// small and deterministic.
	var buf bytes.Buffer
	if err := Save(&buf, s, opts...); err != nil {
		return err
	}
	if err := faultio.WriteFileAtomic(fsys, path, cfg.fsync, func(w io.Writer) error {
		_, err := w.Write(buf.Bytes())
		return err
	}); err != nil {
		return fmt.Errorf("persist: publish snapshot: %w", err)
	}
	return nil
}

// decodeSnapshot reads a framed v2 snapshot from r, refusing any
// stream that does not open with the magic.
func decodeSnapshot(r io.Reader) (*snapshot, error) {
	br := bufio.NewReader(r)
	head, err := br.Peek(len(magicV2))
	if err != nil && len(head) == 0 {
		return nil, fmt.Errorf("persist: read snapshot: %w", err)
	}
	if string(head) != magicV2 {
		return nil, fmt.Errorf("persist: not a framed snapshot: missing the %q magic (unframed v1 snapshots are no longer read)", magicV2)
	}
	var hdr [16]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("persist: corrupt snapshot: truncated header: %w", err)
	}
	n := binary.LittleEndian.Uint32(hdr[8:12])
	sum := binary.LittleEndian.Uint32(hdr[12:16])
	if n == 0 || n > maxPayloadBytes {
		return nil, fmt.Errorf("persist: corrupt snapshot: implausible payload length %d", n)
	}
	payload, got, err := readPayload(br, int(n))
	if err != nil {
		return nil, err
	}
	if got != sum {
		return nil, fmt.Errorf("persist: corrupt snapshot: checksum mismatch (stored %08x, computed %08x)", sum, got)
	}
	var snap snapshot
	if err := gob.NewDecoder(payload).Decode(&snap); err != nil {
		return nil, fmt.Errorf("persist: decode snapshot payload: %w", err)
	}
	if snap.Version != versionV2 {
		return nil, fmt.Errorf("persist: framed snapshot claims version %d, want %d", snap.Version, versionV2)
	}
	return &snap, nil
}

// payloadChunk is the size of a framed payload's first read chunk.
const payloadChunk = 64 << 10

// readPayload reads the n-byte payload a header claims, in chunks that
// start at payloadChunk and double, each allocated only once the bytes
// before it have arrived: a claim larger than the stream costs
// allocation in proportion to the stream, a whole payload n bytes and
// no copy. It returns the payload as one reader, with its CRC-32C.
func readPayload(r io.Reader, n int) (io.Reader, uint32, error) {
	var chunks []io.Reader
	var sum uint32
	for read, size := 0, payloadChunk; read < n; size *= 2 {
		c := make([]byte, min(size, n-read))
		k, err := io.ReadFull(r, c)
		read += k
		if err == io.EOF {
			err = io.ErrUnexpectedEOF // the stream ended on a chunk boundary
		}
		if err != nil {
			return nil, 0, fmt.Errorf("persist: corrupt snapshot: truncated payload: %d of %d bytes: %w", read, n, err)
		}
		sum = crc32.Update(sum, castagnoli, c)
		chunks = append(chunks, bytes.NewReader(c))
	}
	return io.MultiReader(chunks...), sum, nil
}

// Load reconstructs a session from a snapshot (either format) against
// the (reloaded) tables and similarity library. The restored session
// has the same matching function, memo contents, materialized bitmaps
// and work counters as the saved one.
func Load(r io.Reader, lib *sim.Library, a, b *table.Table) (*incremental.Session, error) {
	s, _, err := LoadInfo(r, lib, a, b)
	return s, err
}

// LoadInfo is Load plus the format metadata (version, journal
// sequence) the durability layer needs.
func LoadInfo(r io.Reader, lib *sim.Library, a, b *table.Table) (*incremental.Session, Info, error) {
	snap, err := decodeSnapshot(r)
	if err != nil {
		return nil, Info{}, err
	}
	if snap.TableA != a.Name || snap.TableB != b.Name {
		return nil, Info{}, fmt.Errorf("persist: snapshot is for tables %q/%q, got %q/%q",
			snap.TableA, snap.TableB, a.Name, b.Name)
	}
	if snap.HasDataState {
		// Rebuild the grown tables: the caller supplies (at least) the
		// base records; appended records and tombstones come from the
		// snapshot itself.
		a, err = extendTable(a, snap.BaseLenA, snap.ExtraA, snap.DeadA)
		if err != nil {
			return nil, Info{}, err
		}
		b, err = extendTable(b, snap.BaseLenB, snap.ExtraB, snap.DeadB)
		if err != nil {
			return nil, Info{}, err
		}
	}
	for _, p := range snap.Pairs {
		if int(p.A) >= a.Len() || int(p.B) >= b.Len() || p.A < 0 || p.B < 0 {
			return nil, Info{}, fmt.Errorf("persist: pair %v out of range for reloaded tables", p)
		}
	}
	f, err := rule.ParseFunction(snap.Function)
	if err != nil {
		return nil, Info{}, fmt.Errorf("persist: re-parse function: %w", err)
	}
	c, err := core.Compile(f, lib, a, b)
	if err != nil {
		return nil, Info{}, fmt.Errorf("persist: re-compile function: %w", err)
	}
	n := len(snap.Pairs)
	if snap.Matched == nil || snap.Matched.Len() != n {
		return nil, Info{}, fmt.Errorf("persist: corrupt snapshot: match bitmap missing or mis-sized")
	}
	if len(snap.RuleTrue) != len(c.Rules) || len(snap.PredFalse) != len(c.Rules) {
		return nil, Info{}, fmt.Errorf("persist: snapshot has %d rule bitmaps for %d rules",
			len(snap.RuleTrue), len(c.Rules))
	}
	for ri := range c.Rules {
		if snap.RuleTrue[ri].Len() != n {
			return nil, Info{}, fmt.Errorf("persist: rule %d bitmap mis-sized", ri)
		}
		if len(snap.PredFalse[ri]) != len(c.Rules[ri].Preds) {
			return nil, Info{}, fmt.Errorf("persist: rule %d has %d predicate bitmaps for %d predicates",
				ri, len(snap.PredFalse[ri]), len(c.Rules[ri].Preds))
		}
		for pj := range snap.PredFalse[ri] {
			if snap.PredFalse[ri][pj].Len() != n {
				return nil, Info{}, fmt.Errorf("persist: rule %d predicate %d bitmap mis-sized", ri, pj)
			}
		}
	}
	s := incremental.NewSession(c, snap.Pairs)
	seenFeature := make(map[int]bool, len(snap.Memo))
	for _, row := range snap.Memo {
		fi, err := c.BindFeature(row.Feature)
		if err != nil {
			return nil, Info{}, fmt.Errorf("persist: rebind feature %s: %w", row.Feature.Key(), err)
		}
		if seenFeature[fi] {
			return nil, Info{}, fmt.Errorf("persist: corrupt snapshot: duplicate memo row for feature %s", row.Feature.Key())
		}
		seenFeature[fi] = true
		if len(row.Pairs) != len(row.Vals) {
			return nil, Info{}, fmt.Errorf("persist: corrupt memo row for %s", row.Feature.Key())
		}
		seenPair := make(map[int32]bool, len(row.Pairs))
		for k, pi := range row.Pairs {
			if int(pi) >= n || pi < 0 {
				return nil, Info{}, fmt.Errorf("persist: memo row for %s references pair %d of %d",
					row.Feature.Key(), pi, n)
			}
			if seenPair[pi] {
				return nil, Info{}, fmt.Errorf("persist: corrupt snapshot: memo row for %s repeats pair %d",
					row.Feature.Key(), pi)
			}
			seenPair[pi] = true
			s.M.Memo.Put(fi, int(pi), row.Vals[k])
		}
	}
	s.St = &core.MatchState{
		Matched:   snap.Matched,
		RuleTrue:  snap.RuleTrue,
		PredFalse: snap.PredFalse,
	}
	s.M.Stats = snap.Stats
	if snap.BlockSpec != "" {
		blk, err := block.ParseSpec(snap.BlockSpec)
		if err != nil {
			return nil, Info{}, fmt.Errorf("persist: re-parse block spec: %w", err)
		}
		s.Blocker = blk
	}
	if snap.HasDataState {
		// Tombstoned pairs are derived, not stored: a pair is dead iff a
		// record on either side is tombstoned (delta blocking never pairs
		// deleted records, so the derivation is exact).
		var dead *bitmap.Bits
		if len(snap.DeadA)+len(snap.DeadB) > 0 {
			dead = bitmap.New(n)
			for pi, p := range snap.Pairs {
				if a.Deleted(int(p.A)) || b.Deleted(int(p.B)) {
					dead.Set(pi)
				}
			}
		}
		if err := s.RestoreDataState(snap.BaseLenA, snap.BaseLenB, dead); err != nil {
			return nil, Info{}, fmt.Errorf("persist: %w", err)
		}
	}
	return s, Info{Version: snap.Version, Seq: snap.Seq, Epoch: snap.Epoch}, nil
}

// extendTable rebuilds a grown table from the caller's base records
// plus the snapshot's appended suffix and tombstones. The caller's
// table may itself already contain some or all of the appended records
// (a live table being restored to an earlier point); overlapping
// records must agree on their IDs. A snapshot with baseLen == 0 is
// fully self-contained (physically compacted — see Compact): every
// live record rides in extras and the caller's table contents are
// ignored entirely, so the overlap check is skipped — the on-disk
// CSVs may legitimately still hold the pre-compaction records if a
// crash hit between snapshot publish and table rewrite.
func extendTable(base *table.Table, baseLen int, extras []table.Record, dead []int32) (*table.Table, error) {
	if base.Len() < baseLen {
		return nil, fmt.Errorf("persist: table %q has %d records, snapshot expects at least %d base records",
			base.Name, base.Len(), baseLen)
	}
	t, err := table.New(base.Name, base.Attrs)
	if err != nil {
		return nil, fmt.Errorf("persist: rebuild table: %w", err)
	}
	for i := 0; i < baseLen; i++ {
		if _, err := t.AppendRecord(base.Records[i]); err != nil {
			return nil, fmt.Errorf("persist: rebuild table: %w", err)
		}
	}
	for k, r := range extras {
		if idx := baseLen + k; baseLen > 0 && idx < base.Len() && base.Records[idx].ID != r.ID {
			return nil, fmt.Errorf("persist: table %q record %d: snapshot has ID %q, reloaded table has %q",
				base.Name, idx, r.ID, base.Records[idx].ID)
		}
		if _, err := t.AppendRecord(r); err != nil {
			return nil, fmt.Errorf("persist: rebuild table: %w", err)
		}
	}
	for _, i := range dead {
		if int(i) < 0 || int(i) >= t.Len() {
			return nil, fmt.Errorf("persist: table %q tombstone index %d out of range", t.Name, i)
		}
		t.MarkDeleted(int(i))
	}
	return t, nil
}

// ReadNames returns the table names recorded in a snapshot without
// rebuilding the session — the durability layer needs them to reload
// the tables before it can call LoadInfo.
func ReadNames(path string) (string, string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", "", err
	}
	defer f.Close()
	snap, err := decodeSnapshot(f)
	if err != nil {
		return "", "", err
	}
	return snap.TableA, snap.TableB, nil
}

// LoadFile restores a session from a snapshot file.
func LoadFile(path string, lib *sim.Library, a, b *table.Table) (*incremental.Session, error) {
	s, _, err := LoadFileInfo(path, lib, a, b)
	return s, err
}

// LoadFileInfo is LoadFile plus format metadata.
func LoadFileInfo(path string, lib *sim.Library, a, b *table.Table) (*incremental.Session, Info, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, Info{}, err
	}
	defer f.Close()
	return LoadInfo(f, lib, a, b)
}
