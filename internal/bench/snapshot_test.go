package bench

import (
	"bytes"
	"testing"

	"rulematch/internal/datagen"
	"rulematch/internal/incremental"
	"rulematch/internal/persist"
)

// v2DurabilityBytes is the size of the products-0.02 durability task's
// snapshot in format v2, whose payload was a gob stream.
const v2DurabilityBytes = 482564

// TestSnapshotSizeAndCanonicalBytes gates the columnar snapshot on the
// durability experiment's task (embench -exp durability): it stays at
// or below 40% of the v2 size, and loading it and saving it again
// gives identical bytes.
func TestSnapshotSizeAndCanonicalBytes(t *testing.T) {
	task, err := PrepareTask(datagen.Products(), 0.02, 0)
	if err != nil {
		t.Fatal(err)
	}
	c, err := task.CompileSubset(len(task.Rules))
	if err != nil {
		t.Fatal(err)
	}
	sess := incremental.NewSession(c, task.Pairs())
	if _, err := timeRun(sess); err != nil {
		t.Fatal(err)
	}
	var saved bytes.Buffer
	if err := persist.Save(&saved, sess); err != nil {
		t.Fatal(err)
	}
	if limit := v2DurabilityBytes * 40 / 100; saved.Len() > limit {
		t.Errorf("snapshot is %d bytes, over 40%% of the v2 size (%d bytes)", saved.Len(), limit)
	}
	loaded, err := persist.Load(bytes.NewReader(saved.Bytes()), task.Lib, task.DS.A, task.DS.B)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.M.Memo.Bytes() != sess.M.Memo.Bytes() || loaded.M.Memo.Entries() != sess.M.Memo.Entries() {
		t.Errorf("loaded memo holds %d entries in %d bytes, want %d in %d",
			loaded.M.Memo.Entries(), loaded.M.Memo.Bytes(), sess.M.Memo.Entries(), sess.M.Memo.Bytes())
	}
	var again bytes.Buffer
	if err := persist.Save(&again, loaded); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), saved.Bytes()) {
		t.Errorf("re-saving a loaded snapshot gave %d bytes that differ from the %d loaded", again.Len(), saved.Len())
	}
}
