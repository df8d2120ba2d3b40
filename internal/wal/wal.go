// Package wal implements the write-ahead edit journal that makes
// debugging sessions crash-safe: every committed incremental edit
// (the paper's Algorithms 7–10) is appended to an append-only log
// before it is acknowledged, so a crash — even kill -9 — loses no
// committed work. Recovery loads the last good snapshot
// (internal/persist) and replays the journal's surviving suffix;
// Store ties the two together per session directory and compacts the
// journal into a fresh snapshot once it grows past a threshold.
//
// On-disk format: an 8-byte magic ("EMWAL1\n" + NUL), then records,
// each framed as
//
//	uint32 LE payload length | uint32 LE CRC-32C | JSON payload
//
// A torn tail — a record cut short by a crash, or garbage after a
// partial append — is detected by the length/CRC check; recovery
// keeps every record before the first bad byte and truncates the rest
// (RepairFile), which is exactly the semantics of a crash between
// append and fsync: the un-synced suffix never happened.
package wal

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"time"

	"rulematch/internal/faultio"
	"rulematch/internal/table"
)

const (
	// Magic opens every journal file.
	Magic = "EMWAL1\n\x00"

	// MaxRecordBytes bounds a record's length prefix: a corrupt
	// length must not drive a huge allocation. Edit records are DSL
	// snippets plus indices, record batches are bounded by the server's
	// request size limit — a megabyte is generous. Exported so callers
	// accepting record batches (the emserve records endpoint) can
	// reject an over-limit batch before applying it.
	MaxRecordBytes = 1 << 20
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Record is one journaled edit operation. Op uses the same names as
// the emserve edit API: add_predicate, remove_predicate, tighten,
// relax, set_threshold, add_rule, remove_rule — plus the data-side
// ops record_append and record_delete.
type Record struct {
	// Seq numbers records 1,2,3,… within a session's history. A
	// snapshot covering seq S makes every record with Seq <= S
	// redundant; recovery replays only the suffix.
	Seq uint64 `json:"seq"`
	// Epoch is the replication epoch the record was written under.
	// Promotion of a replica bumps the epoch, so two nodes that both
	// believe they are primary stamp distinguishable histories: a
	// fenced (deposed) node's records carry a lower epoch and are
	// refused by followers that have seen the newer one.
	Epoch     uint64  `json:"epoch,omitempty"`
	Op        string  `json:"op"`
	Rule      int     `json:"rule"`
	Pred      int     `json:"pred,omitempty"`
	Threshold float64 `json:"threshold,omitempty"`
	// Src carries DSL source: the predicate for add_predicate, the
	// rule for add_rule.
	Src string `json:"src,omitempty"`
	// RecsA/RecsB carry the appended records for record_append, per
	// side; DelA/DelB carry the deleted record IDs for record_delete.
	RecsA []table.Record `json:"recs_a,omitempty"`
	RecsB []table.Record `json:"recs_b,omitempty"`
	DelA  []string       `json:"del_a,omitempty"`
	DelB  []string       `json:"del_b,omitempty"`
}

// SyncMode selects when appends reach stable storage.
type SyncMode int

const (
	// SyncAlways fsyncs after every append — no acknowledged edit is
	// ever lost, even to power failure.
	SyncAlways SyncMode = iota
	// SyncInterval fsyncs when Interval has elapsed since the last
	// sync — bounded loss under power failure, none under kill -9.
	SyncInterval
	// SyncNever leaves flushing to the OS — fastest; kill -9 still
	// loses nothing the kernel accepted, power failure may.
	SyncNever
)

// SyncPolicy is a SyncMode plus its interval.
type SyncPolicy struct {
	Mode     SyncMode
	Interval time.Duration
}

func (p SyncPolicy) String() string {
	switch p.Mode {
	case SyncAlways:
		return "always"
	case SyncNever:
		return "never"
	default:
		return p.Interval.String()
	}
}

// ParseSyncPolicy reads the -fsync flag syntax: "always", "never", or
// a duration ("100ms", "2s") for interval syncing.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always":
		return SyncPolicy{Mode: SyncAlways}, nil
	case "never":
		return SyncPolicy{Mode: SyncNever}, nil
	}
	d, err := time.ParseDuration(s)
	if err != nil || d <= 0 {
		return SyncPolicy{}, fmt.Errorf("wal: fsync policy %q: want always, never, or a positive duration", s)
	}
	return SyncPolicy{Mode: SyncInterval, Interval: d}, nil
}

// Writer appends records to a journal file.
type Writer struct {
	fsys     faultio.FS
	f        faultio.File
	path     string
	policy   SyncPolicy
	size     int64
	lastSync time.Time
}

// OpenWriter opens (or creates) the journal at path for appending.
// A brand-new (or empty) journal gets the magic header. The caller is
// responsible for having run recovery first — OpenWriter assumes the
// existing content is well-formed up to its size.
func OpenWriter(fsys faultio.FS, path string, policy SyncPolicy) (*Writer, error) {
	var size int64
	if fi, err := os.Stat(path); err == nil {
		size = fi.Size()
	} else if !errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("wal: stat journal: %w", err)
	}
	f, err := fsys.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: open journal: %w", err)
	}
	w := &Writer{fsys: fsys, f: f, path: path, policy: policy, size: size, lastSync: time.Now()}
	if size == 0 {
		if _, err := f.Write([]byte(Magic)); err != nil {
			_ = f.Close()
			return nil, fmt.Errorf("wal: write journal header: %w", err)
		}
		w.size = int64(len(Magic))
		if policy.Mode != SyncNever {
			if err := f.Sync(); err != nil {
				_ = f.Close()
				return nil, fmt.Errorf("wal: sync journal header: %w", err)
			}
		}
	}
	return w, nil
}

// Append journals one record, frames it, writes it in a single write
// call and syncs per policy. On return with nil error the record is
// committed (durably so under SyncAlways).
func (w *Writer) Append(rec Record) error {
	frame, err := EncodeFrame(rec)
	if err != nil {
		return err
	}
	if _, err := w.f.Write(frame); err != nil {
		return fmt.Errorf("wal: append record: %w", err)
	}
	w.size += int64(len(frame))
	switch w.policy.Mode {
	case SyncAlways:
		if err := w.f.Sync(); err != nil {
			return fmt.Errorf("wal: sync journal: %w", err)
		}
		w.lastSync = time.Now()
	case SyncInterval:
		if time.Since(w.lastSync) >= w.policy.Interval {
			if err := w.f.Sync(); err != nil {
				return fmt.Errorf("wal: sync journal: %w", err)
			}
			w.lastSync = time.Now()
		}
	}
	return nil
}

// EncodeFrame frames one record exactly as Writer.Append writes it:
// uint32 LE payload length, uint32 LE CRC-32C, JSON payload.
func EncodeFrame(rec Record) ([]byte, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("wal: encode record: %w", err)
	}
	if len(payload) > MaxRecordBytes {
		return nil, fmt.Errorf("wal: record %d bytes exceeds the %d-byte limit", len(payload), MaxRecordBytes)
	}
	frame := make([]byte, 8+len(payload))
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(payload, castagnoli))
	copy(frame[8:], payload)
	return frame, nil
}

// Size returns the journal's current byte size (header + records).
func (w *Writer) Size() int64 { return w.size }

// Close closes the underlying file (syncing first unless the policy
// is SyncNever).
func (w *Writer) Close() error {
	if w.policy.Mode != SyncNever {
		if err := w.f.Sync(); err != nil {
			_ = w.f.Close()
			return fmt.Errorf("wal: sync on close: %w", err)
		}
	}
	return w.f.Close()
}

// Log is the result of reading a journal: the records that survived,
// and where the good prefix ends.
type Log struct {
	Records []Record
	// GoodSize is the byte offset of the first bad (torn, corrupt or
	// trailing-garbage) byte; equal to the file size for a clean log.
	GoodSize int64
	// Torn reports whether anything after GoodSize was discarded.
	Torn bool
}

// ReadLog reads a journal file, stopping at the first bad record — a
// short frame, an implausible length, a checksum mismatch, or a
// sequence number that does not increase. A missing file is an empty
// log. ReadLog never modifies the file; pass the result to RepairFile
// to truncate the torn tail before appending again.
func ReadLog(path string) (*Log, error) {
	data, err := readJournal(path)
	if err != nil {
		return nil, err
	}
	return parseLog(data), nil
}

// readJournal reads a whole journal file; a missing file reads as
// empty.
func readJournal(path string) ([]byte, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("wal: read journal: %w", err)
	}
	return data, nil
}

// parseLog decodes a whole journal file: the magic header, then
// frames.
func parseLog(data []byte) *Log {
	body, ok := bytes.CutPrefix(data, []byte(Magic))
	if !ok {
		// Header never completed: the whole file is a torn tail.
		return &Log{Torn: len(data) > 0}
	}
	recs, bounds := scanFrames(body)
	good := bounds[len(recs)]
	return &Log{Records: recs, GoodSize: int64(len(Magic) + good), Torn: good < len(body)}
}

// DecodeFrames decodes a run of journal frames without the magic
// header: the body of the replication WAL endpoint. The whole body has
// arrived, so a bad frame anywhere in it is an error, never a tail to
// wait for.
func DecodeFrames(b []byte) ([]Record, error) {
	recs, bounds := scanFrames(b)
	if good := bounds[len(recs)]; good < len(b) {
		return nil, fmt.Errorf("wal: bad frame at byte %d of %d", good, len(b))
	}
	return recs, nil
}

// scanFrames is the one journal frame decoder, behind recovery
// (ReadLog), shipping (Store.FramesAfter) and following (DecodeFrames).
// It decodes back-to-back frames and stops at the first bad one: a
// short frame, an implausible length, a checksum mismatch, a payload
// that is not a record, or a sequence number that does not increase.
// Frame i spans data[bounds[i]:bounds[i+1]], and bounds[len(recs)] is
// where the good prefix ends.
func scanFrames(data []byte) (recs []Record, bounds []int) {
	bounds = []int{0}
	off := 0
	var lastSeq uint64
	for len(data)-off >= 8 {
		rest := data[off:]
		n := binary.LittleEndian.Uint32(rest[0:4])
		if n == 0 || n > MaxRecordBytes || int64(n) > int64(len(rest)-8) {
			break
		}
		payload := rest[8 : 8+n]
		if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(rest[4:8]) {
			break
		}
		var rec Record
		if err := json.Unmarshal(payload, &rec); err != nil || rec.Seq <= lastSeq {
			// A repeated or regressing sequence means the tail is not
			// trustworthy.
			break
		}
		lastSeq = rec.Seq
		recs = append(recs, rec)
		off += 8 + int(n)
		bounds = append(bounds, off)
	}
	return recs, bounds
}

// RepairFile truncates the journal's torn tail in place so appends
// can resume after the last good record. No-op for a clean log.
func RepairFile(fsys faultio.FS, path string, log *Log) error {
	if !log.Torn {
		return nil
	}
	if err := fsys.Truncate(path, log.GoodSize); err != nil {
		return fmt.Errorf("wal: truncate torn tail: %w", err)
	}
	return nil
}

// LastSeq returns the sequence number of the final record (0 when
// empty).
func (l *Log) LastSeq() uint64 {
	if len(l.Records) == 0 {
		return 0
	}
	return l.Records[len(l.Records)-1].Seq
}
