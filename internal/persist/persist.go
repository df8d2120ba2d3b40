// Package persist saves and restores incremental matching sessions.
// The paper's maintainability goal (Section 1) asks that matching state
// survive between runs; a snapshot captures the matching function, the
// candidate pairs, the feature memo and the materialized bitmaps, so an
// analyst can stop and resume a debugging session without paying the
// cold-start cost again.
//
// A snapshot (format v3) is an 8-byte magic, a little-endian uint32
// payload length, a CRC-32C (Castagnoli) of the payload, then the
// payload: a hand-written columnar encoding of the session (codec.go).
// Truncation and corruption anywhere in the file are detected before
// any state is built. A stream with any other magic is refused: the
// unframed v1 format and v2, whose payload was a gob stream, are no
// longer read.
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
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"slices"
	"strings"

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
	// version is the snapshot format this package writes and reads.
	version = 3

	// magic opens every snapshot. Eight bytes so the sniff read is
	// aligned and unambiguous; earlier formats carry other magics or
	// none.
	magic = "EMSNAP3\n"

	// headerSize is the frame header: magic, payload length, CRC.
	headerSize = 16

	// maxPayloadBytes is the format's payload size limit; a header
	// claiming more is corrupt. Decoding allocates by the bytes
	// actually read, never by the claim.
	maxPayloadBytes = 1 << 30
)

// castagnoli is the CRC-32C table used for snapshot and journal
// checksums (the same polynomial storage systems use — iSCSI, ext4).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

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
// (see internal/wal), for snapshots that live next to an edit journal.
func WithSeq(seq uint64) SaveOption { return func(c *saveConfig) { c.seq = seq } }

// WithEpoch records the replication epoch the snapshot was written
// under (see internal/wal). Durable per-session snapshots carry it so
// a recovered node knows which history it belongs to; interchange
// snapshots (the HTTP snapshot download, CLI saves) omit it so two
// nodes holding the same state at different epochs still serialize to
// identical bytes.
func WithEpoch(epoch uint64) SaveOption { return func(c *saveConfig) { c.epoch = epoch } }

func configure(opts []SaveOption) saveConfig {
	cfg := saveConfig{fsync: true}
	for _, o := range opts {
		o(&cfg)
	}
	return cfg
}

// buildSnapshot assembles the snapshot of the session. It copies
// nothing: the pairs, bitmaps, memo rows and appended records are the
// session's own.
func buildSnapshot(s *incremental.Session, seq, epoch uint64) (*snapshot, error) {
	if s.St == nil {
		return nil, fmt.Errorf("persist: session has no materialized state; call Run first")
	}
	c := s.M.C
	snap := &snapshot{
		TableA:    c.A.Name,
		TableB:    c.B.Name,
		Seq:       seq,
		Epoch:     epoch,
		Function:  c.Function().String(),
		Stats:     s.M.Stats,
		Pairs:     s.M.Pairs,
		Matched:   s.St.Matched,
		RuleTrue:  s.St.RuleTrue,
		PredFalse: s.St.PredFalse,
	}
	if s.Blocker != nil {
		spec, err := block.FormatSpec(s.Blocker)
		if err != nil {
			return nil, fmt.Errorf("persist: %w", err)
		}
		snap.BlockSpec = spec
	}
	for fi := 0; s.M.Memo != nil && fi < len(c.Features); fi++ {
		vals, present := s.M.Memo.Row(fi)
		if present != nil && present.NextSet(0) >= 0 {
			snap.Memo = append(snap.Memo, memoRow{Feature: c.Features[fi].Feature, Present: present, Vals: vals})
		}
	}
	// Canonical row order: a session's in-memory feature order depends
	// on its edit history, but two sessions holding the same memo
	// contents must serialize to identical bytes (the recovery tests
	// compare snapshots of a replayed session against a live one).
	// Feature keys are unique within a compiled function.
	slices.SortFunc(snap.Memo, compareKeys)

	baseA, baseB := s.BaseLens()
	snap.BaseLenA, snap.BaseLenB = baseA, baseB
	snap.ExtraA, snap.ExtraB = c.A.Records[baseA:], c.B.Records[baseB:]
	snap.DeadA, snap.DeadB = c.A.DeletedIndices(), c.B.DeletedIndices()
	snap.HasDataState = len(snap.ExtraA)+len(snap.ExtraB)+len(snap.DeadA)+len(snap.DeadB) > 0
	return snap, nil
}

// encode returns the framed snapshot of s.
func encode(s *incremental.Session, cfg saveConfig) ([]byte, error) {
	snap, err := buildSnapshot(s, cfg.seq, cfg.epoch)
	if err != nil {
		return nil, err
	}
	return frame(appendPayload(make([]byte, headerSize, 64<<10), snap))
}

// frame fills in the header reserved at the head of buf for the
// payload after it: magic | uint32 length | uint32 CRC-32C.
func frame(buf []byte) ([]byte, error) {
	payload := buf[headerSize:]
	if len(payload) > maxPayloadBytes {
		return nil, fmt.Errorf("persist: snapshot payload %d bytes exceeds the %d-byte format limit", len(payload), maxPayloadBytes)
	}
	copy(buf, magic)
	binary.LittleEndian.PutUint32(buf[8:12], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[12:16], crc32.Checksum(payload, castagnoli))
	return buf, nil
}

// Save writes the session snapshot to w. The session must have run
// (Session.Run) at least once.
func Save(w io.Writer, s *incremental.Session, opts ...SaveOption) error {
	data, err := encode(s, configure(opts))
	if err != nil {
		return err
	}
	_, err = w.Write(data)
	return err
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
	cfg := configure(opts)
	// Encode fully in memory first: an encoding error must not leave a
	// temp file behind, and a single Write keeps the on-disk step count
	// small and deterministic.
	data, err := encode(s, cfg)
	if err != nil {
		return err
	}
	if err := faultio.WriteFileAtomic(fsys, path, cfg.fsync, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	}); err != nil {
		return fmt.Errorf("persist: publish snapshot: %w", err)
	}
	return nil
}

// readHeader reads and checks a frame header, refusing any stream that
// does not open with the magic, and returns the payload length and CRC.
func readHeader(br *bufio.Reader) (int, uint32, error) {
	head, err := br.Peek(len(magic))
	if err != nil && len(head) == 0 {
		return 0, 0, fmt.Errorf("persist: read snapshot: %w", err)
	}
	if string(head) != magic {
		if strings.HasPrefix(string(head), magic[:6]) {
			return 0, 0, fmt.Errorf("persist: snapshot format %q is no longer read, only %q", head, magic)
		}
		return 0, 0, fmt.Errorf("persist: not a framed snapshot: missing the %q magic (unframed v1 snapshots are no longer read)", magic)
	}
	var hdr [headerSize]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return 0, 0, fmt.Errorf("persist: corrupt snapshot: truncated header: %w", err)
	}
	n := binary.LittleEndian.Uint32(hdr[8:12])
	if n == 0 || n > maxPayloadBytes {
		return 0, 0, fmt.Errorf("persist: corrupt snapshot: implausible payload length %d", n)
	}
	return int(n), binary.LittleEndian.Uint32(hdr[12:16]), nil
}

// decodeSnapshot reads a framed snapshot from r and decodes its
// payload once the checksum holds.
func decodeSnapshot(r io.Reader) (*snapshot, error) {
	br := bufio.NewReader(r)
	n, sum, err := readHeader(br)
	if err != nil {
		return nil, err
	}
	payload, got, err := readPayload(br, n)
	if err != nil {
		return nil, err
	}
	if got != sum {
		return nil, fmt.Errorf("persist: corrupt snapshot: checksum mismatch (stored %08x, computed %08x)", sum, got)
	}
	return decodePayload(payload)
}

// payloadChunk is the size of a framed payload's first read chunk.
const payloadChunk = 64 << 10

// readPayload reads the n-byte payload a header claims into one buffer
// that starts at payloadChunk bytes and doubles, each growth made only
// once the bytes before it have arrived: a claim larger than the
// stream costs allocation in proportion to the stream. It returns the
// payload with its CRC-32C.
func readPayload(r io.Reader, n int) ([]byte, uint32, error) {
	buf := make([]byte, 0, min(payloadChunk, n))
	var sum uint32
	for len(buf) < n {
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, min(cap(buf), n-len(buf)))
		}
		chunk := buf[len(buf):min(cap(buf), n)]
		k, err := io.ReadFull(r, chunk)
		buf = buf[:len(buf)+k]
		if err == io.EOF {
			err = io.ErrUnexpectedEOF // the stream ended on a chunk boundary
		}
		if err != nil {
			return nil, 0, fmt.Errorf("persist: corrupt snapshot: truncated payload: %d of %d bytes: %w", len(buf), n, err)
		}
		sum = crc32.Update(sum, castagnoli, chunk)
	}
	return buf, sum, nil
}

// Load reconstructs a session from a snapshot against the (reloaded)
// tables and similarity library. The restored session has the same
// matching function, memo contents, materialized bitmaps and work
// counters as the saved one.
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
		if int(p.A) >= a.Len() || int(p.B) >= b.Len() {
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
	if len(snap.RuleTrue) != len(c.Rules) {
		return nil, Info{}, fmt.Errorf("persist: snapshot has %d rule bitmaps for %d rules",
			len(snap.RuleTrue), len(c.Rules))
	}
	for ri := range c.Rules {
		if len(snap.PredFalse[ri]) != len(c.Rules[ri].Preds) {
			return nil, Info{}, fmt.Errorf("persist: rule %d has %d predicate bitmaps for %d predicates",
				ri, len(snap.PredFalse[ri]), len(c.Rules[ri].Preds))
		}
	}
	s := incremental.NewSession(c, snap.Pairs)
	for _, row := range snap.Memo {
		fi, err := c.BindFeature(row.Feature)
		if err != nil {
			return nil, Info{}, fmt.Errorf("persist: rebind feature %s: %w", row.Feature.Key(), err)
		}
		// Rows arrive in strictly ascending key order, so no two bind
		// to one feature.
		s.M.Memo.SetRow(fi, row.Vals, row.Present)
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
			dead = bitmap.New(len(snap.Pairs))
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
	return s, Info{Version: version, Seq: snap.Seq, Epoch: snap.Epoch}, nil
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

// ReadNames returns the table names a snapshot file records, which
// the durability layer needs to reload the tables before it can call
// LoadInfo. It reads the frame header and the two names at the head of
// the payload, and nothing after them; LoadFileInfo checks the names
// again under the payload's checksum.
func ReadNames(path string) (string, string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", "", err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return "", "", err
	}
	br := bufio.NewReader(f)
	n, _, err := readHeader(br)
	if err != nil {
		return "", "", err
	}
	// The names cannot run past the payload, nor past the file.
	left := min(int64(n), fi.Size()-headerSize)
	name := func() (string, error) {
		k, err := binary.ReadUvarint(br)
		if err != nil || k > uint64(left) {
			return "", fmt.Errorf("persist: corrupt snapshot: names: truncated or malformed")
		}
		b := make([]byte, k)
		if _, err := io.ReadFull(br, b); err != nil {
			return "", fmt.Errorf("persist: corrupt snapshot: names: %w", err)
		}
		left -= int64(uvarintLen(k)) + int64(k)
		return string(b), nil
	}
	nameA, err := name()
	if err != nil {
		return "", "", err
	}
	nameB, err := name()
	if err != nil {
		return "", "", err
	}
	return nameA, nameB, nil
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
