package bench

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"

	"rulematch/internal/faultio"
	"rulematch/internal/incremental"
	"rulematch/internal/persist"
	"rulematch/internal/wal"
)

// AblationDurability measures what crash safety costs: snapshot
// save/load latency in both formats, the fsync premium on SaveFile,
// and journal-based recovery (snapshot load + replay of journaled
// edits) against the cold-start alternative of re-running the full
// materializing pass.
func AblationDurability(task *Task) (*Table, error) {
	c, err := task.CompileSubset(len(task.Rules))
	if err != nil {
		return nil, err
	}
	pairs := task.Pairs()
	sess := incremental.NewSession(c, pairs)
	var coldRun = timeIt(func() { sess.RunFull() })

	out := &Table{
		Title:  fmt.Sprintf("Durability: snapshot + journal recovery cost, %s", task.DS.Name),
		Header: []string{"Operation", "ms", "bytes"},
	}
	out.AddRow("cold RunFull (baseline)", ms(coldRun), "")

	// In-memory encode/decode: the format cost without any I/O.
	var v2 bytes.Buffer
	d := timeIt(func() { err = persist.Save(&v2, sess) })
	if err != nil {
		return nil, err
	}
	out.AddRow("save v2 (encode)", ms(d), fmt.Sprint(v2.Len()))

	dir, err := os.MkdirTemp("", "emdur")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	snapPath := filepath.Join(dir, "bench.em")
	d = timeIt(func() { err = persist.SaveFile(snapPath, sess) })
	if err != nil {
		return nil, err
	}
	out.AddRow("SaveFile (fsync)", ms(d), "")
	d = timeIt(func() { err = persist.SaveFile(snapPath, sess, persist.NoFsync()) })
	if err != nil {
		return nil, err
	}
	out.AddRow("SaveFile (no fsync)", ms(d), "")

	var loaded *incremental.Session
	d = timeIt(func() { loaded, err = persist.LoadFile(snapPath, task.Lib, task.DS.A, task.DS.B) })
	if err != nil {
		return nil, err
	}
	out.AddRow("LoadFile v2", ms(d), "")
	_ = loaded

	// Journal recovery: a durable session with journaled edits on top
	// of its initial snapshot, recovered from disk.
	const edits = 20
	storeDir := filepath.Join(dir, "session")
	st, err := wal.Create(faultio.OS, storeDir, wal.SyncPolicy{Mode: wal.SyncAlways}, sess, task.DS.A, task.DS.B)
	if err != nil {
		return nil, err
	}
	// Wiggle one threshold back and forth: every record is a real
	// incremental op for the replay to repeat.
	base := c.Rules[0].Preds[0].Threshold
	for i := 0; i < edits; i++ {
		thr := base - 0.01
		if i%2 == 1 {
			thr = base
		}
		rec := wal.Record{Op: "set_threshold", Rule: 0, Pred: 0, Threshold: thr}
		if err := wal.Apply(sess, rec); err != nil {
			return nil, err
		}
		if err := st.RecordEdit(sess, rec); err != nil {
			return nil, err
		}
	}
	if err := st.Close(); err != nil {
		return nil, err
	}
	var rec *wal.Recovered
	d = timeIt(func() { _, rec, err = wal.Open(faultio.OS, storeDir, wal.SyncPolicy{Mode: wal.SyncAlways}, task.Lib) })
	if err != nil {
		return nil, err
	}
	out.AddRow(fmt.Sprintf("recover (snapshot + %d-record replay)", rec.Replayed), ms(d), "")
	out.Notes = append(out.Notes,
		"recovery restores the memo and bitmaps; the cold run recomputes every feature")
	return out, nil
}
