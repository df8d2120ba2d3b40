package wal

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"rulematch/internal/faultio"
	"rulematch/internal/incremental"
	"rulematch/internal/persist"
	"rulematch/internal/sim"
	"rulematch/internal/table"
)

// Store file names inside a session directory.
const (
	SnapshotFile = "snapshot.em"
	JournalFile  = "journal.wal"
	TableAFile   = "tableA.csv"
	TableBFile   = "tableB.csv"
)

// DefaultCompactBytes is the journal size beyond which RecordEdit
// compacts (snapshot + journal rotation).
const DefaultCompactBytes = 1 << 20

// Store is the durable home of one debugging session: a directory
// holding the input tables, the latest checksummed snapshot and the
// edit journal. All writes go through a faultio.FS so tests can
// inject crashes at any filesystem operation.
//
// Crash-consistency protocol:
//
//   - Every committed edit is appended (and synced, per policy) to the
//     journal before it is acknowledged.
//   - Compaction first publishes a new snapshot atomically
//     (temp+fsync+rename, carrying the covered sequence number), then
//     rotates the journal the same way. A crash between the two steps
//     leaves a new snapshot plus a stale journal; recovery skips every
//     record the snapshot already covers, so nothing is replayed twice.
//   - Recovery = load the framed snapshot, read the journal, truncate
//     its torn tail, replay the records after the snapshot's sequence.
type Store struct {
	fsys      faultio.FS
	dir       string
	policy    SyncPolicy
	CompactAt int64 // journal bytes that trigger compaction; <=0 = DefaultCompactBytes

	w       *Writer
	seq     uint64 // last durably journaled (or snapshotted) sequence
	snapSeq uint64 // sequence covered by the current snapshot
	epoch   uint64 // replication epoch stamped on new records/snapshots
	fenced  bool   // a newer epoch exists elsewhere; refuse writes
}

// ErrFenced reports that the store refuses writes because a newer
// replication epoch exists: this node was deposed as primary and a
// promoted replica owns the session's history now. Fencing is
// permanent for the store's lifetime — a fenced node must re-join as
// a replica, never append.
var ErrFenced = errors.New("wal: store is fenced (a newer epoch exists)")

// ErrRotated reports that a journal no longer holds the records a
// cursor asks for: compaction folded them into a snapshot and rotated
// the file, or the journal lost them. A follower seeing this must
// re-bootstrap from the latest snapshot instead of retrying the cursor.
var ErrRotated = errors.New("wal: journal rotated past cursor")

func (st *Store) path(name string) string { return filepath.Join(st.dir, name) }

// Seq returns the sequence number of the last committed edit.
func (st *Store) Seq() uint64 { return st.seq }

// Epoch returns the replication epoch new records are stamped with.
func (st *Store) Epoch() uint64 { return st.epoch }

// SetEpoch raises the epoch stamped on subsequent records and
// snapshots. Lowering the epoch is refused — history never moves
// backward.
func (st *Store) SetEpoch(e uint64) {
	if e > st.epoch {
		st.epoch = e
	}
}

// Fence permanently refuses further writes: RecordEdit returns
// ErrFenced. Called when the node learns (via a request stamped with
// a higher epoch) that it was deposed.
func (st *Store) Fence() { st.fenced = true }

// Fenced reports whether the store refuses writes.
func (st *Store) Fenced() bool { return st.fenced }

// Dir returns the session directory.
func (st *Store) Dir() string { return st.dir }

// JournalSize returns the journal's current size in bytes.
func (st *Store) JournalSize() int64 {
	if st.w == nil {
		return 0
	}
	return st.w.Size()
}

// Create initializes a session directory: tables, an initial snapshot
// of the materialized session (seq 0, stamped with epoch) and an empty
// journal whose records carry epoch. The directory must not already
// contain a snapshot.
func Create(fsys faultio.FS, dir string, policy SyncPolicy, sess *incremental.Session, a, b *table.Table, epoch uint64) (*Store, error) {
	st := &Store{fsys: fsys, dir: dir, policy: policy, epoch: epoch}
	if _, err := os.Stat(st.path(SnapshotFile)); err == nil {
		return nil, fmt.Errorf("wal: session directory %s already holds a snapshot", dir)
	}
	return st.populate(sess, a.WriteCSV, b.WriteCSV)
}

// CreateAt initializes a session directory at a given recovery point:
// the promotion path, where a replica that has applied WAL sequence
// seq becomes the primary of a new epoch. Unlike Create, the base
// tables arrive as raw CSV bytes (the exact bytes the follower
// bootstrapped from — the snapshot's base lengths refer to them, so
// rewriting the session's grown tables instead would corrupt
// recovery), the snapshot is stamped with seq and epoch, and the
// fresh journal starts appending at seq+1 under the new epoch. Any
// previous contents of dir are removed: a promoted history replaces
// whatever a past life left there.
func CreateAt(fsys faultio.FS, dir string, policy SyncPolicy, sess *incremental.Session, aCSV, bCSV []byte, seq, epoch uint64) (*Store, error) {
	st := &Store{fsys: fsys, dir: dir, policy: policy, seq: seq, snapSeq: seq, epoch: epoch}
	if err := fsys.RemoveAll(dir); err != nil {
		return nil, fmt.Errorf("wal: clear session directory: %w", err)
	}
	return st.populate(sess, writeBytes(aCSV), writeBytes(bCSV))
}

// populate fills a fresh session directory: the two base tables, then
// the first snapshot, then the journal.
func (st *Store) populate(sess *incremental.Session, writeA, writeB func(io.Writer) error) (*Store, error) {
	if err := st.fsys.MkdirAll(st.dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: create session directory: %w", err)
	}
	if err := st.writeTable(TableAFile, writeA); err != nil {
		return nil, err
	}
	if err := st.writeTable(TableBFile, writeB); err != nil {
		return nil, err
	}
	if err := st.saveSnapshot(sess); err != nil {
		return nil, err
	}
	w, err := OpenWriter(st.fsys, st.path(JournalFile), st.policy)
	if err != nil {
		return nil, err
	}
	st.w = w
	return st, nil
}

// writeBytes is the write callback that writes b as it is.
func writeBytes(b []byte) func(io.Writer) error {
	return func(w io.Writer) error {
		_, err := w.Write(b)
		return err
	}
}

// writeTable atomically publishes one table CSV, so a crash leaves
// either the old or the new file.
func (st *Store) writeTable(name string, write func(io.Writer) error) error {
	if err := faultio.WriteFileAtomic(st.fsys, st.path(name), st.policy.Mode != SyncNever, write); err != nil {
		return fmt.Errorf("wal: write %s: %w", name, err)
	}
	return nil
}

// Recovered reports what Open reconstructed.
type Recovered struct {
	Session  *incremental.Session
	A, B     *table.Table
	Replayed int  // journal records applied on top of the snapshot
	Torn     bool // whether a torn journal tail was truncated
}

// Open recovers a session from its directory: reload the tables, load
// the last good snapshot, replay the journal suffix (truncating a
// torn tail), and reopen the journal for appending.
func Open(fsys faultio.FS, dir string, policy SyncPolicy, lib *sim.Library) (*Store, *Recovered, error) {
	st := &Store{fsys: fsys, dir: dir, policy: policy}
	// Table names are not stored in the CSV, so recover them from the
	// snapshot header; persist.LoadFileInfo then verifies consistency.
	nameA, nameB, err := persist.ReadNames(st.path(SnapshotFile))
	if err != nil {
		return nil, nil, fmt.Errorf("wal: recover snapshot: %w", err)
	}
	a, err := table.ReadCSVFile(st.path(TableAFile), nameA)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: recover tables: %w", err)
	}
	b, err := table.ReadCSVFile(st.path(TableBFile), nameB)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: recover tables: %w", err)
	}
	sess, info, err := persist.LoadFileInfo(st.path(SnapshotFile), lib, a, b)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: recover snapshot: %w", err)
	}
	log, err := ReadLog(st.path(JournalFile))
	if err != nil {
		return nil, nil, err
	}
	if err := RepairFile(fsys, st.path(JournalFile), log); err != nil {
		return nil, nil, err
	}
	seq, err := Replay(sess, log.Records, info.Seq)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: replay journal: %w", err)
	}
	st.seq = seq
	st.snapSeq = info.Seq
	// The epoch is the highest seen anywhere in the recovery point: the
	// snapshot's stamp, or a journal record appended after a promotion
	// raised it (SetEpoch does not rewrite the snapshot).
	st.epoch = info.Epoch
	for _, rec := range log.Records {
		if rec.Epoch > st.epoch {
			st.epoch = rec.Epoch
		}
	}
	w, err := OpenWriter(fsys, st.path(JournalFile), policy)
	if err != nil {
		return nil, nil, err
	}
	st.w = w
	replayed := 0
	for _, rec := range log.Records {
		if rec.Seq > info.Seq {
			replayed++
		}
	}
	// Return the session's tables, not the CSV reloads: the snapshot
	// may carry appended records past the CSV base (extras), and replay
	// of record_append ops can grow them further.
	return st, &Recovered{Session: sess, A: sess.M.C.A, B: sess.M.C.B, Replayed: replayed, Torn: log.Torn}, nil
}

// RecordEdit journals one committed edit (assigning it the next
// sequence number) and compacts if the journal has outgrown the
// threshold. The edit must already be applied to sess; on a nil
// return it is as durable as the sync policy promises.
func (st *Store) RecordEdit(sess *incremental.Session, rec Record) error {
	if st.w == nil {
		return errors.New("wal: store is closed")
	}
	if st.fenced {
		return ErrFenced
	}
	rec.Seq = st.seq + 1
	rec.Epoch = st.epoch
	if err := st.w.Append(rec); err != nil {
		return err
	}
	st.seq = rec.Seq
	limit := st.CompactAt
	if limit <= 0 {
		limit = DefaultCompactBytes
	}
	if st.w.Size() > limit {
		if err := st.Compact(sess); err != nil {
			return fmt.Errorf("wal: compact: %w", err)
		}
	}
	return nil
}

// Compact folds the journal into a fresh snapshot and rotates the
// journal. Both steps are individually atomic; see the Store comment
// for why a crash between them is safe.
func (st *Store) Compact(sess *incremental.Session) error {
	if err := st.saveSnapshot(sess); err != nil {
		return err
	}
	st.snapSeq = st.seq
	return st.rotateJournal()
}

// saveSnapshot atomically publishes sess as the store's snapshot,
// stamped with the store's current seq and epoch, fsynced unless the
// sync policy is never.
func (st *Store) saveSnapshot(sess *incremental.Session) error {
	opts := []persist.SaveOption{persist.WithSeq(st.seq), persist.WithEpoch(st.epoch)}
	if st.policy.Mode == SyncNever {
		opts = append(opts, persist.NoFsync())
	}
	return persist.SaveFileFS(st.fsys, st.path(SnapshotFile), sess, opts...)
}

// CompactRewrite is Compact for a physically compacted session (see
// persist.Compact): it additionally rewrites the table CSVs to the
// compacted records, physically dropping tombstones from disk. The
// crash-consistency argument needs one extra step beyond Compact's:
//
//  1. The snapshot is published atomically first. A compacted session
//     reports base lengths of zero, so its snapshot is fully
//     self-contained — recovery never reads record *contents* from the
//     CSVs — and a crash right after this step recovers correctly
//     against the stale, uncompacted tables still on disk.
//  2. Each table CSV is then rewritten atomically (temp + rename), so
//     no crash point ever exposes a torn CSV.
//  3. The journal rotates last, exactly as in Compact.
//
// sess must be the compacted twin of the session this store journals
// (same seq coverage); a and b are its compacted tables.
func (st *Store) CompactRewrite(sess *incremental.Session, a, b *table.Table) error {
	if err := st.saveSnapshot(sess); err != nil {
		return err
	}
	st.snapSeq = st.seq
	if err := st.writeTable(TableAFile, a.WriteCSV); err != nil {
		return err
	}
	if err := st.writeTable(TableBFile, b.WriteCSV); err != nil {
		return err
	}
	return st.rotateJournal()
}

// rotateJournal atomically publishes a header-only journal over the
// live one, then moves the writer onto it. The old writer is closed
// only after the publish: every record it holds is covered by the
// snapshot just saved, so its close error changes nothing. A failed
// publish leaves the store closed, since once the rename may have
// landed the old writer's file is no longer the journal and appending
// to it would lose edits.
func (st *Store) rotateJournal() error {
	err := faultio.WriteFileAtomic(st.fsys, st.path(JournalFile), st.policy.Mode != SyncNever, writeBytes([]byte(Magic)))
	_ = st.w.Close()
	st.w = nil
	if err != nil {
		return fmt.Errorf("wal: rotate journal: %w", err)
	}
	st.w, err = OpenWriter(st.fsys, st.path(JournalFile), st.policy)
	return err
}

// SnapshotSeq returns the sequence number covered by the store's
// current snapshot: every record with Seq <= SnapshotSeq is folded in
// and no longer served from the journal. A follower whose cursor is
// below this must re-bootstrap.
func (st *Store) SnapshotSeq() uint64 { return st.snapSeq }

// FramesAfter returns the journal's own frame bytes (no magic header)
// for the records from+1..Seq(), plus the last sequence included
// (== from when the follower is caught up). Returns ErrRotated when
// the journal does not hold exactly those records: compaction folded
// some into the snapshot (the cursor predates SnapshotSeq), or a
// corrupt frame cut the readable journal short of Seq().
//
// Callers must hold at least the session's read lock: the journal is
// only appended or rotated under the write lock, so the file is
// quiescent for the duration.
func (st *Store) FramesAfter(from uint64) ([]byte, uint64, error) {
	if from < st.snapSeq {
		return nil, 0, fmt.Errorf("cursor %d predates snapshot seq %d: %w", from, st.snapSeq, ErrRotated)
	}
	if from >= st.seq {
		return nil, from, nil
	}
	data, err := readJournal(st.path(JournalFile))
	if err != nil {
		return nil, 0, err
	}
	body, ok := bytes.CutPrefix(data, []byte(Magic))
	if !ok {
		return nil, 0, fmt.Errorf("journal has no header: %w", ErrRotated)
	}
	recs, bounds := scanFrames(body)
	// Records at or below from are stale (left by a crash between
	// snapshot publish and rotation, or already shipped); seqs rise
	// strictly, so the first and last seq pin the whole run.
	lo := sort.Search(len(recs), func(i int) bool { return recs[i].Seq > from })
	hi := lo + int(st.seq-from)
	if hi > len(recs) || recs[lo].Seq != from+1 || recs[hi-1].Seq != st.seq {
		return nil, 0, fmt.Errorf("journal does not hold records %d..%d: %w", from+1, st.seq, ErrRotated)
	}
	return body[bounds[lo]:bounds[hi]], st.seq, nil
}

// TableBytes returns the raw CSV bytes of the session's base tables —
// the files a snapshot's base lengths refer to. Followers bootstrap
// from these plus the snapshot. Callers must hold at least the read
// lock (CompactRewrite replaces the files under the write lock).
func (st *Store) TableBytes() (a, b []byte, err error) {
	a, err = os.ReadFile(st.path(TableAFile))
	if err != nil {
		return nil, nil, fmt.Errorf("wal: read %s: %w", TableAFile, err)
	}
	b, err = os.ReadFile(st.path(TableBFile))
	if err != nil {
		return nil, nil, fmt.Errorf("wal: read %s: %w", TableBFile, err)
	}
	return a, b, nil
}

// Close syncs and closes the journal.
func (st *Store) Close() error {
	if st.w == nil {
		return nil
	}
	err := st.w.Close()
	st.w = nil
	return err
}

// Destroy removes the session directory and everything in it.
func (st *Store) Destroy() error {
	_ = st.Close()
	return st.fsys.RemoveAll(st.dir)
}
