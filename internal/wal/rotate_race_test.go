package wal

import (
	"errors"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"rulematch/internal/faultio"
)

// The rotation race: the replication endpoint reads the journal under
// the session's read lock while compaction, under the write lock,
// renames a fresh journal over it. Store.FramesAfter must never tear —
// every byte it returns decodes as a whole, CRC-clean, contiguous frame
// run — and a stale cursor resolves as ErrRotated.
//
// Run under -race this also proves the locking discipline around the
// store's seq/snapSeq fields.
func TestFramesAfterRaceCompactRewrite(t *testing.T) {
	sess, a, b := buildSessionT(t)
	dir := filepath.Join(t.TempDir(), "race")
	st, err := Create(faultio.OS, dir, SyncPolicy{Mode: SyncNever}, sess, a, b, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

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
			recs, derr := DecodeFrames(frames)
			if derr != nil {
				t.Fatalf("FramesAfter returned a torn frame run after cursor %d: %v", cursor, derr)
			}
			for i, rec := range recs {
				if want := cursor + 1 + uint64(i); rec.Seq != want {
					t.Fatalf("frame gap: record %d has seq %d, want %d", i, rec.Seq, want)
				}
			}
			if last != cursor+uint64(len(recs)) {
				t.Fatalf("FramesAfter reported last=%d for %d records after %d", last, len(recs), cursor)
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
	if cursor != edits {
		t.Fatalf("locked reader drained to %d, want %d", cursor, edits)
	}
	if rotations == 0 {
		t.Fatal("locked reader never raced a rotation; the test lost its point")
	}
}
