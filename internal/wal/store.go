package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"

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
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: create session directory: %w", err)
	}
	if err := st.writeTable(TableAFile, a); err != nil {
		return nil, err
	}
	if err := st.writeTable(TableBFile, b); err != nil {
		return nil, err
	}
	if err := st.saveSnapshot(sess); err != nil {
		return nil, err
	}
	w, err := OpenWriter(fsys, st.path(JournalFile), policy)
	if err != nil {
		return nil, err
	}
	st.w = w
	return st, nil
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
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: create session directory: %w", err)
	}
	if err := st.writeTableBytes(TableAFile, aCSV); err != nil {
		return nil, err
	}
	if err := st.writeTableBytes(TableBFile, bCSV); err != nil {
		return nil, err
	}
	if err := st.saveSnapshot(sess); err != nil {
		return nil, err
	}
	w, err := OpenWriter(fsys, st.path(JournalFile), policy)
	if err != nil {
		return nil, err
	}
	st.w = w
	return st, nil
}

// writeTableBytes persists one input table from raw CSV bytes.
func (st *Store) writeTableBytes(name string, csv []byte) error {
	f, err := st.fsys.OpenFile(st.path(name), os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("wal: create %s: %w", name, err)
	}
	if _, err := f.Write(csv); err != nil {
		_ = f.Close()
		return fmt.Errorf("wal: write %s: %w", name, err)
	}
	if st.policy.Mode != SyncNever {
		if err := f.Sync(); err != nil {
			_ = f.Close()
			return fmt.Errorf("wal: sync %s: %w", name, err)
		}
	}
	return f.Close()
}

// writeTable persists one input table as CSV through the store's FS.
func (st *Store) writeTable(name string, t *table.Table) error {
	f, err := st.fsys.OpenFile(st.path(name), os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("wal: create %s: %w", name, err)
	}
	if err := t.WriteCSV(f); err != nil {
		_ = f.Close()
		return fmt.Errorf("wal: write %s: %w", name, err)
	}
	if st.policy.Mode != SyncNever {
		if err := f.Sync(); err != nil {
			_ = f.Close()
			return fmt.Errorf("wal: sync %s: %w", name, err)
		}
	}
	return f.Close()
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
	if err := st.writeTableAtomic(TableAFile, a); err != nil {
		return err
	}
	if err := st.writeTableAtomic(TableBFile, b); err != nil {
		return err
	}
	return st.rotateJournal()
}

// writeTableAtomic rewrites one table CSV via temp + fsync + rename +
// dir-fsync, so a crash leaves either the old or the new file.
func (st *Store) writeTableAtomic(name string, t *table.Table) error {
	tmp := st.path(name + ".tmp")
	f, err := st.fsys.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("wal: rewrite %s: %w", name, err)
	}
	cleanup := func(err error) error {
		_ = st.fsys.Remove(tmp)
		return fmt.Errorf("wal: rewrite %s: %w", name, err)
	}
	if err := t.WriteCSV(f); err != nil {
		_ = f.Close()
		return cleanup(err)
	}
	if st.policy.Mode != SyncNever {
		if err := f.Sync(); err != nil {
			_ = f.Close()
			return cleanup(err)
		}
	}
	if err := f.Close(); err != nil {
		return cleanup(err)
	}
	if err := st.fsys.Rename(tmp, st.path(name)); err != nil {
		return cleanup(err)
	}
	if st.policy.Mode != SyncNever {
		if err := st.fsys.SyncDir(st.dir); err != nil {
			return fmt.Errorf("wal: rewrite %s: %w", name, err)
		}
	}
	return nil
}

// rotateJournal swaps in a fresh header-only journal: build it beside
// the live one, then atomically rename it over.
func (st *Store) rotateJournal() error {
	tmp := st.path(JournalFile + ".new")
	f, err := st.fsys.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("wal: rotate journal: %w", err)
	}
	if _, err := f.Write([]byte(Magic)); err != nil {
		_ = f.Close()
		_ = st.fsys.Remove(tmp)
		return fmt.Errorf("wal: rotate journal: %w", err)
	}
	if st.policy.Mode != SyncNever {
		if err := f.Sync(); err != nil {
			_ = f.Close()
			_ = st.fsys.Remove(tmp)
			return fmt.Errorf("wal: rotate journal: %w", err)
		}
	}
	if err := f.Close(); err != nil {
		_ = st.fsys.Remove(tmp)
		return fmt.Errorf("wal: rotate journal: %w", err)
	}
	_ = st.w.Close()
	st.w = nil
	if err := st.fsys.Rename(tmp, st.path(JournalFile)); err != nil {
		return fmt.Errorf("wal: rotate journal: %w", err)
	}
	if st.policy.Mode != SyncNever {
		if err := st.fsys.SyncDir(st.dir); err != nil {
			return fmt.Errorf("wal: rotate journal: %w", err)
		}
	}
	w, err := OpenWriter(st.fsys, st.path(JournalFile), st.policy)
	if err != nil {
		return err
	}
	st.w = w
	return nil
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
