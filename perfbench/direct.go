package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"rulematch/internal/core"
	"rulematch/internal/incremental"
	"rulematch/internal/persist"
	"rulematch/internal/rule"
	"rulematch/internal/server"
	"rulematch/internal/sessionstore"
	"rulematch/internal/table"
	"rulematch/internal/wal"
)

// The direct driver replays the script without HTTP: each op calls, in
// handler order, the public functions the handler calls —
// sessionstore.Store.Acquire, the incremental.Session op,
// Handle.RecordEdit with the record the handler journals, and
// Handle.Release — while the benchmark itself decodes the request and
// encodes the server wire type. Every call runs inside a span when the
// tracer is on.

// layerCounts accumulates the deterministic per-layer work counts.
type layerCounts struct {
	sessionOps    int        // incremental ops whose OpReport was read
	stats         core.Stats // summed OpReport.Stats
	examined      int
	moves         int
	pairsAdded    int
	acquires      int
	releases      int
	reloads       uint64
	evictions     uint64
	walRecords    int   // journal appends that did not compact
	walBytes      int64 // their JournalBytes deltas
	compactions   int
	reqBytes      []float64 // decoded records request sizes
	respBytes     []float64 // encoded read response sizes
	lagOps        []float64 // PrimarySeq - AppliedSeq at each records ack
	propagationMs []float64
	applyMs       []float64
}

// direct drives one stack without HTTP.
type direct struct {
	in  *inputs
	st  *stack
	tr  *tracer
	rec *recorder // root durations by latency class
	cnt layerCounts
	dir string // scratch space for decompositions

	// replicated-stream: a twin session fed the same records
	// (replica.apply) and cloned tables for delta blocking (block.delta).
	twin    *incremental.Session
	cloneA  *table.Table
	cloneB  *table.Table
	lastSeq uint64 // Em-Seq of the last records ack

	decompIndex   int
	snapshotBytes []float64
}

func newDirect(in *inputs, st *stack, tr *tracer, dir string) (*direct, error) {
	d := &direct{in: in, st: st, tr: tr, rec: newRecorder(), dir: dir}
	if in.follower {
		s := &in.sessions[0]
		a, b, err := s.tables()
		if err != nil {
			return nil, err
		}
		twin, err := in.coldSession(s.rules, a, b)
		if err != nil {
			return nil, err
		}
		d.twin = twin
		if d.cloneA, d.cloneB, err = s.tables(); err != nil {
			return nil, err
		}
	}
	return d, nil
}

func (d *direct) store(o op) *sessionstore.Store {
	if o.Follower {
		return d.st.follower.srv.Store()
	}
	return d.st.primary.srv.Store()
}

// acquire wraps Store.Acquire in a span and counts reloads.
func (d *direct) acquire(s *sessionstore.Store, name string, mode sessionstore.Mode) (*sessionstore.Handle, error) {
	var h *sessionstore.Handle
	var err error
	d.tr.run("sessionstore.acquire", func() { h, err = s.Acquire(name, mode) })
	d.cnt.acquires++
	return h, err
}

func (d *direct) release(h *sessionstore.Handle) {
	d.tr.run("sessionstore.release", h.Release)
	d.cnt.releases++
}

// record journals one committed write the way the handler does and
// accounts its bytes and any compaction it triggered.
func (d *direct) record(h *sessionstore.Handle, rec wal.Record) {
	before, snap := h.JournalBytes(), h.SnapshotSeq()
	d.tr.run("wal.record", func() { h.RecordEdit(rec) })
	if h.SnapshotSeq() != snap {
		d.cnt.compactions++
		return
	}
	d.cnt.walRecords++
	d.cnt.walBytes += h.JournalBytes() - before
}

// report folds one incremental op's OpReport into the counts.
func (d *direct) report(op incremental.OpReport) {
	d.cnt.sessionOps++
	d.cnt.stats.Add(op.Stats)
	d.cnt.examined += op.PairsExamined
	d.cnt.moves += op.OwnershipMoves
	d.cnt.pairsAdded += op.PairsAdded
}

// encode marshals a response the way the handler's writeJSON does.
func (d *direct) encode(v any) int {
	var n int
	d.tr.run("server.encode", func() {
		b, err := json.MarshalIndent(v, "", "  ")
		if err != nil {
			panic(err) // the wire types always encode
		}
		n = len(b) + 1
	})
	return n
}

func wireReport(op incremental.OpReport) server.OpReport {
	return server.OpReport{Op: op.Op, PairsExamined: op.PairsExamined, OwnershipMoves: op.OwnershipMoves,
		PairsAdded: op.PairsAdded, PairsRemoved: op.PairsRemoved, Stats: op.Stats}
}

// do runs one scripted op as direct calls; the returned duration is the
// op's root span.
func (d *direct) do(i int, o op) (time.Duration, error) {
	d.tr.op = int32(i)
	defer func() { d.tr.op = -1 }()
	c0 := d.st.primary.srv.Store().Counters()
	t0 := time.Now()
	root := d.tr.begin("op." + o.Kind)
	var err error
	switch o.Kind {
	case kEdit:
		err = d.edit(o)
	case kRules:
		err = d.rules(o)
	case kMatches:
		err = d.matches(o)
	case kSweep:
		err = d.sweep(o)
	case kRecords:
		err = d.records(o)
	}
	d.tr.end(root)
	took := time.Since(t0)
	c1 := d.st.primary.srv.Store().Counters()
	d.cnt.reloads += c1.ReloadedTotal - c0.ReloadedTotal
	d.cnt.evictions += c1.EvictedTotal - c0.EvictedTotal
	return took, err
}

func (d *direct) edit(o op) error {
	var req server.EditRequest
	var err error
	d.tr.run("server.decode", func() { err = json.Unmarshal(o.Body, &req) })
	if err != nil {
		return err
	}
	h, err := d.acquire(d.store(o), o.Session, sessionstore.ModeEdit)
	if err != nil {
		return err
	}
	defer d.release(h)
	sess := h.Session()
	ri := req.Rule
	d.tr.run("incremental."+req.Op, func() {
		switch req.Op {
		case "add_predicate":
			var p rule.Predicate
			if p, err = rule.ParsePredicate(req.Predicate); err == nil {
				err = sess.AddPredicate(ri, p)
			}
		case "remove_predicate":
			err = sess.RemovePredicate(ri, req.Pred)
		case "tighten":
			err = sess.TightenPredicate(ri, req.Pred, req.Threshold)
		case "relax":
			err = sess.RelaxPredicate(ri, req.Pred, req.Threshold)
		case "set_threshold":
			err = sess.SetThreshold(ri, req.Pred, req.Threshold)
		case "add_rule":
			var nr rule.Rule
			if nr, err = rule.ParseRule(req.RuleSrc); err == nil {
				err = sess.AddRule(nr)
			}
		case "remove_rule":
			err = sess.RemoveRule(ri)
		default:
			err = fmt.Errorf("unknown op %q", req.Op)
		}
	})
	if err != nil {
		return err
	}
	d.report(sess.LastOp)
	src := req.Predicate
	if req.Op == "add_rule" {
		src = req.RuleSrc
	}
	d.record(h, wal.Record{Op: req.Op, Rule: ri, Pred: req.Pred, Threshold: req.Threshold, Src: src})
	d.encode(server.EditResponse{Report: wireReport(sess.LastOp), Matches: sess.MatchCount(), Rules: len(sess.M.C.Rules)})
	return nil
}

// rules builds the GET .../rules listing as hRules does, with the
// bitmap counts it needs taken first under their own span.
func (d *direct) rules(o op) error {
	h, err := d.acquire(d.store(o), o.Session, sessionstore.ModeRead)
	if err != nil {
		return err
	}
	defer d.release(h)
	sess := h.Session()
	var out server.RuleList
	d.tr.run("server.listing", func() {
		rules := sess.M.C.Rules
		trueCounts := make([]int, len(rules))
		falseCounts := make([][]int, len(rules))
		d.tr.run("bitmap.count", func() {
			for ri := range rules {
				trueCounts[ri] = sess.St.RuleTrue[ri].Count()
				falseCounts[ri] = make([]int, len(rules[ri].Preds))
				for pj := range rules[ri].Preds {
					falseCounts[ri][pj] = sess.St.PredFalse[ri][pj].Count()
				}
			}
		})
		out.Rules = make([]server.RuleInfo, len(rules))
		for ri := range rules {
			cr := &rules[ri]
			info := server.RuleInfo{Index: ri, Name: cr.Name, TrueCount: trueCounts[ri], Preds: make([]server.PredInfo, len(cr.Preds))}
			for pj := range cr.Preds {
				p := &cr.Preds[pj]
				feat := sess.M.C.Features[p.Feat].Feature
				info.Preds[pj] = server.PredInfo{Index: pj, Key: p.Key, Sim: feat.Sim, AttrA: feat.AttrA, AttrB: feat.AttrB,
					Op: p.Op.String(), Threshold: p.Threshold, FalseCount: falseCounts[ri][pj]}
			}
			out.Rules[ri] = info
		}
	})
	d.cnt.respBytes = append(d.cnt.respBytes, float64(d.encode(out)))
	return nil
}

// matches builds the first matches page as hMatches does.
func (d *direct) matches(o op) error {
	h, err := d.acquire(d.store(o), o.Session, sessionstore.ModeRead)
	if err != nil {
		return err
	}
	defer d.release(h)
	sess := h.Session()
	a, b := h.Tables()
	page := server.MatchPage{Matches: []server.MatchedPair{}}
	d.tr.run("server.page", func() {
		page.Total = sess.MatchCount()
		for pi := 0; pi < len(sess.M.Pairs); pi++ {
			if !sess.St.Matched.Get(pi) {
				continue
			}
			if len(page.Matches) == pageSize {
				page.NextCursor = "next"
				break
			}
			p := sess.M.Pairs[pi]
			owner := ""
			for ri := range sess.M.C.Rules {
				if sess.St.RuleTrue[ri].Get(pi) {
					owner = sess.M.C.Rules[ri].Name
					break
				}
			}
			page.Matches = append(page.Matches, server.MatchedPair{Pair: pi, IDA: a.Records[p.A].ID, IDB: b.Records[p.B].ID, Rule: owner})
		}
	})
	d.cnt.respBytes = append(d.cnt.respBytes, float64(d.encode(page)))
	return nil
}

func (d *direct) sweep(o op) error {
	var req server.SweepRequest
	var err error
	d.tr.run("server.decode", func() { err = json.Unmarshal(o.Body, &req) })
	if err != nil {
		return err
	}
	h, err := d.acquire(d.store(o), o.Session, sessionstore.ModeWrite)
	if err != nil {
		return err
	}
	defer d.release(h)
	sess := h.Session()
	var points []incremental.SweepPoint
	d.tr.run("incremental.sweep", func() {
		points, err = sess.SweepThresholdParallelCtx(context.Background(), req.Rule, req.Pred, incremental.DefaultSweep(req.Steps), sess.M.Workers)
	})
	if err != nil {
		return err
	}
	out := server.SweepResponse{Points: make([]server.SweepPoint, len(points))}
	for i, p := range points {
		out.Points[i] = server.SweepPoint{Threshold: p.Threshold, Matches: p.Matched.Count()}
	}
	d.encode(out)
	return nil
}

// records mirrors hRecords: decode, validate, delete then append, each
// journaled as its own record, and the ack. The Em-Seq of the ack
// is left in d.lastSeq for the propagation wait.
func (d *direct) records(o op) error {
	var req server.RecordsRequest
	var err error
	d.tr.run("server.decode", func() { err = json.Unmarshal(o.Body, &req) })
	if err != nil {
		return err
	}
	d.cnt.reqBytes = append(d.cnt.reqBytes, float64(len(o.Body)))
	recsB := make([]table.Record, len(req.AppendB))
	for i, r := range req.AppendB {
		recsB[i] = table.Record{ID: r.ID, Values: r.Values}
	}
	h, err := d.acquire(d.store(o), o.Session, sessionstore.ModeEdit)
	if err != nil {
		return err
	}
	defer d.release(h)
	sess := h.Session()
	d.tr.run("incremental.validate", func() { err = sess.ValidateAppend(nil, recsB) })
	if err != nil {
		return err
	}
	d.tr.run("server.journal_check", func() {
		for _, rec := range []wal.Record{{Op: "record_delete", DelB: req.DeleteB}, {Op: "record_append", RecsB: recsB}} {
			if _, merr := json.Marshal(rec); merr != nil {
				err = merr
			}
		}
	})
	if err != nil {
		return err
	}
	resp := server.RecordsResponse{}
	if len(req.DeleteB) > 0 {
		d.tr.run("incremental.delete_records", func() { err = sess.DeleteRecords(nil, req.DeleteB) })
		if err != nil {
			return err
		}
		d.report(sess.LastOp)
		rep := wireReport(sess.LastOp)
		resp.DeleteReport, resp.Deleted = &rep, len(req.DeleteB)
		d.record(h, wal.Record{Op: "record_delete", DelB: req.DeleteB})
	}
	d.tr.run("incremental.add_records", func() { err = sess.AddRecords(nil, recsB) })
	if err != nil {
		return err
	}
	d.report(sess.LastOp)
	rep := wireReport(sess.LastOp)
	resp.AppendReport, resp.Appended = &rep, len(recsB)
	d.record(h, wal.Record{Op: "record_append", RecsB: recsB})
	resp.Matches, resp.Pairs = sess.MatchCount(), sess.LivePairCount()
	d.lastSeq = h.Seq()
	d.encode(resp)
	return nil
}

// afterRecords runs outside the op: the propagation wait (a real
// follower tails the primary's journal over HTTP), then the
// decompositions — the same records applied to a twin session
// (replica.apply) and delta blocking on cloned tables (block.delta).
func (d *direct) afterRecords(i int, o op) error {
	d.tr.op = int32(i)
	defer func() { d.tr.op = -1 }()
	if p, ok := d.st.mgr.PrimarySeq(o.Session); ok {
		if a, ok := d.st.mgr.AppliedSeq(o.Session); ok && p >= a {
			d.cnt.lagOps = append(d.cnt.lagOps, float64(p-a))
		}
	}
	var wait time.Duration
	var err error
	d.tr.run("replica.propagation", func() { wait, err = d.st.awaitApplied(o.Session, d.lastSeq) })
	if err != nil {
		return err
	}
	d.rec.busy += wait
	d.rec.add(cPropagation, wait)
	d.cnt.propagationMs = append(d.cnt.propagationMs, ms(wait))

	var req server.RecordsRequest
	if err := json.Unmarshal(o.Body, &req); err != nil {
		return err
	}
	recsB := make([]table.Record, len(req.AppendB))
	for k, r := range req.AppendB {
		recsB[k] = table.Record{ID: r.ID, Values: r.Values}
	}
	t0 := time.Now()
	d.tr.run("replica.apply", func() {
		if len(req.DeleteB) > 0 {
			err = wal.Apply(d.twin, wal.Record{Op: "record_delete", DelB: req.DeleteB})
		}
		if err == nil {
			err = wal.Apply(d.twin, wal.Record{Op: "record_append", RecsB: recsB})
		}
	})
	if err != nil {
		return err
	}
	d.cnt.applyMs = append(d.cnt.applyMs, ms(time.Since(t0)))

	for _, id := range req.DeleteB {
		if _, err := d.cloneB.DeleteRecord(id); err != nil {
			return err
		}
	}
	oldA, oldB := d.cloneA.Len(), d.cloneB.Len()
	for _, r := range recsB {
		if _, err := d.cloneB.AppendRecord(r); err != nil {
			return err
		}
	}
	d.tr.run("block.delta", func() { _, err = d.in.blocker().PairsDelta(d.cloneA, d.cloneB, oldA, oldB) })
	return err
}

// decompose times a reload and an eviction piecewise on a copy of an
// evicted session's directory, calling what a reload calls —
// persist.ReadNames, table.ReadCSVFile on both tables,
// persist.LoadFileInfo, wal.ReadLog + wal.Replay, then
// Session.Reconfigure to the server's engine configuration — and then
// persist.SaveFile (with fsync) of the loaded session, the eviction's
// snapshot write.
func (d *direct) decompose(datadir, name string) error {
	src := filepath.Join(datadir, name)
	dst := filepath.Join(d.dir, fmt.Sprintf("decomp-%d", d.decompIndex))
	d.decompIndex++
	if err := copyDir(src, dst); err != nil {
		return err
	}
	defer os.RemoveAll(dst)
	var nameA, nameB string
	var err error
	d.tr.run("persist.read_names", func() { nameA, nameB, err = persist.ReadNames(filepath.Join(dst, wal.SnapshotFile)) })
	if err != nil {
		return err
	}
	var a, b *table.Table
	d.tr.run("table.read_csv", func() {
		if a, err = table.ReadCSVFile(filepath.Join(dst, wal.TableAFile), nameA); err == nil {
			b, err = table.ReadCSVFile(filepath.Join(dst, wal.TableBFile), nameB)
		}
	})
	if err != nil {
		return err
	}
	var sess *incremental.Session
	var info persist.Info
	d.tr.run("persist.load", func() { sess, info, err = persist.LoadFileInfo(filepath.Join(dst, wal.SnapshotFile), d.in.lib, a, b) })
	if err != nil {
		return err
	}
	d.tr.run("wal.replay", func() {
		var lg *wal.Log
		if lg, err = wal.ReadLog(filepath.Join(dst, wal.JournalFile)); err == nil {
			_, err = wal.Replay(sess, lg.Records, info.Seq)
		}
	})
	if err != nil {
		return err
	}
	d.tr.run("incremental.reconfigure", func() { sess.Reconfigure(engineConfig()) })
	out := filepath.Join(dst, "resaved.em")
	d.tr.run("persist.save", func() { err = persist.SaveFile(out, sess) })
	if err != nil {
		return err
	}
	fi, err := os.Stat(out)
	if err != nil {
		return err
	}
	d.snapshotBytes = append(d.snapshotBytes, float64(fi.Size()))
	return nil
}

func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if err := copyFile(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		_ = out.Close()
		return err
	}
	return out.Close()
}
