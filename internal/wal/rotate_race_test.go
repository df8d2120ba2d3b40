package wal

import (
	"bytes"
	"errors"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"rulematch/internal/faultio"
)

// The rotation race: replication readers follow the journal while
// compaction renames a fresh one over it. The contract under test:
//
//   - Tail.Poll holds file-only state and runs with NO lock; a
//     rotation under its feet must surface as a clean ErrRotated (or a
//     benign empty poll), never as garbage records or a non-rotation
//     error.
//   - Store.FramesAfter runs under the session's read lock (the
//     writer compacts under the write lock); it must never tear — every
//     byte it returns decodes as a whole, CRC-clean, contiguous frame
//     run — and a stale cursor resolves as ErrRotated.
//
// Run under -race this also proves the locking discipline around the
// store's seq/snapSeq fields.
func TestTailAndFramesAfterRaceCompactRewrite(t *testing.T) {
	sess, a, b := buildSessionT(t)
	dir := filepath.Join(t.TempDir(), "race")
	st, err := Create(faultio.OS, dir, SyncPolicy{Mode: SyncNever}, sess, a, b, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	journal := filepath.Join(dir, JournalFile)

	const (
		edits      = 400
		compactNth = 25 // rotate the journal every 25 edits
	)
	var lk sync.RWMutex // stands in for the session store's lock
	done := make(chan struct{})

	// Writer: the primary's life — journal edits, compact periodically.
	go func() {
		defer close(done)
		for i := 0; i < edits; i++ {
			rec := Record{Op: "set_threshold", Rule: 0, Pred: 0, Threshold: 0.5 + 0.001*float64(i%300)}
			lk.Lock()
			if err := Apply(sess, rec); err != nil {
				t.Errorf("apply %d: %v", i, err)
				lk.Unlock()
				return
			}
			if err := st.RecordEdit(sess, rec); err != nil {
				t.Errorf("record %d: %v", i, err)
				lk.Unlock()
				return
			}
			if i%compactNth == compactNth-1 {
				if err := st.CompactRewrite(sess, a, b); err != nil {
					t.Errorf("compact at %d: %v", i, err)
					lk.Unlock()
					return
				}
			}
			lk.Unlock()
			runtime.Gosched() // let readers land mid-rotation
		}
	}()

	// Lock-free tail: what a raw journal follower sees across
	// rotations. It may stall briefly on bytes racing a write (Poll
	// treats a CRC mismatch as retryable), but it must never return a
	// record it should not, and every error must be ErrRotated.
	var tailRotations int
	tailDone := make(chan struct{})
	go func() {
		defer close(tailDone)
		tail, err := NewTail(journal, 0)
		if err != nil {
			t.Errorf("tail open: %v", err)
			return
		}
		deadline := time.After(30 * time.Second)
		for {
			select {
			case <-deadline:
				t.Error("tail reader never finished")
				return
			default:
			}
			recs, err := tail.Poll()
			for _, rec := range recs {
				if rec.Op != "set_threshold" || rec.Seq == 0 || rec.Seq > edits {
					t.Errorf("tail read a torn or alien record: %+v", rec)
					return
				}
			}
			if err != nil {
				if !errors.Is(err, ErrRotated) {
					t.Errorf("tail poll: %v (want ErrRotated)", err)
					return
				}
				tailRotations++
				// Re-anchor past the latest snapshot, the way the
				// replication endpoint re-bootstraps a follower.
				lk.RLock()
				after := st.SnapshotSeq()
				lk.RUnlock()
				if tail, err = NewTail(journal, after); err != nil {
					t.Errorf("tail reopen: %v", err)
					return
				}
				continue
			}
			select {
			case <-done:
				if len(recs) == 0 {
					return // writer finished and the tail is drained
				}
			default:
			}
		}
	}()

	// Locked reader: the replication endpoint's exact access pattern.
	// Under the read lock nothing may ever tear, full stop.
	var cursor, rotations uint64
	for {
		lk.RLock()
		frames, last, err := st.FramesAfter(cursor)
		snap := st.SnapshotSeq()
		lk.RUnlock()
		switch {
		case errors.Is(err, ErrRotated):
			rotations++
			if snap < cursor {
				t.Fatalf("rotation moved the snapshot floor backward: %d -> %d", cursor, snap)
			}
			cursor = snap
		case err != nil:
			t.Fatalf("FramesAfter(%d): %v", cursor, err)
		case len(frames) > 0:
			lg, derr := ReadLogFrom(bytes.NewReader(append([]byte(Magic), frames...)))
			if derr != nil {
				t.Fatalf("FramesAfter returned undecodable bytes: %v", derr)
			}
			if lg.Torn {
				t.Fatalf("FramesAfter returned a torn frame run after cursor %d", cursor)
			}
			for i, rec := range lg.Records {
				if want := cursor + 1 + uint64(i); rec.Seq != want {
					t.Fatalf("frame gap: record %d has seq %d, want %d", i, rec.Seq, want)
				}
			}
			if last != cursor+uint64(len(lg.Records)) {
				t.Fatalf("FramesAfter reported last=%d for %d records after %d", last, len(lg.Records), cursor)
			}
			cursor = last
		}
		if cursor == edits {
			break
		}
		select {
		case <-done:
			// Writer finished; drain whatever remains and stop.
			if cursor == edits {
				break
			}
		default:
		}
	}
	<-done
	<-tailDone
	if cursor != edits {
		t.Fatalf("locked reader drained to %d, want %d", cursor, edits)
	}
	if rotations == 0 {
		t.Fatal("locked reader never raced a rotation; the test lost its point")
	}
	if tailRotations == 0 {
		t.Fatal("lock-free tail never observed a rotation; the test lost its point")
	}
}
