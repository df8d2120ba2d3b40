package server

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"rulematch/internal/block"
	"rulematch/internal/core"
	"rulematch/internal/incremental"
	"rulematch/internal/persist"
	"rulematch/internal/rule"
	"rulematch/internal/sessionstore"
	"rulematch/internal/sim"
	"rulematch/internal/table"
	"rulematch/internal/wal"
)

var errDraining = errors.New("server is draining")

// acquire resolves the {name} path wildcard to a session handle in the
// given mode, writing the error response itself on failure. The
// acquisition is the touch: an evicted session is transparently
// reloaded before this returns. Callers must Release the handle.
func (s *Server) acquire(w http.ResponseWriter, r *http.Request, mode sessionstore.Mode) (*sessionstore.Handle, bool) {
	h, err := s.store.Acquire(r.PathValue("name"), mode)
	if err != nil {
		s.writeStoreErr(w, err)
		return nil, false
	}
	return h, true
}

// hCreate builds a session from inline tables plus either DSL rules
// and a blocker, or a persist snapshot, then runs the full
// materializing pass under the request context and admits the result
// into the store.
func (s *Server) hCreate(w http.ResponseWriter, r *http.Request) {
	var req CreateSessionRequest
	if err := s.decode(w, r, &req); err != nil {
		writeErr(w, http.StatusBadRequest, CodeInvalidRequest, err)
		return
	}
	if req.Name == "" {
		writeErr(w, http.StatusBadRequest, CodeInvalidRequest, errors.New("name is required"))
		return
	}
	if req.TableA == "" || req.TableB == "" {
		writeErr(w, http.StatusBadRequest, CodeInvalidRequest, errors.New("tableA and tableB are required"))
		return
	}
	a, err := table.ReadCSV(strings.NewReader(req.TableA), "A")
	if err != nil {
		writeErr(w, http.StatusBadRequest, CodeInvalidRequest, fmt.Errorf("tableA: %w", err))
		return
	}
	b, err := table.ReadCSV(strings.NewReader(req.TableB), "B")
	if err != nil {
		writeErr(w, http.StatusBadRequest, CodeInvalidRequest, fmt.Errorf("tableB: %w", err))
		return
	}
	var sess *incremental.Session
	if len(req.Snapshot) > 0 {
		// Warm start: the snapshot carries function, pairs, memo and
		// bitmaps; only the engine knobs need applying.
		sess, err = persist.Load(bytes.NewReader(req.Snapshot), sim.Standard(), a, b)
		if err != nil {
			writeErr(w, http.StatusBadRequest, CodeInvalidRequest, err)
			return
		}
		sess.Reconfigure(s.cfg)
	} else {
		sess, err = s.buildSession(r.Context(), a, b, &req)
		if err != nil {
			writeOpErr(w, err)
			return
		}
	}
	// Admit the session's own tables, not the parses above: a warm
	// start from a snapshot with appended records rebuilds extended
	// tables inside persist.Load. After Admit the store owns the
	// session — it may already be racing toward eviction — so the
	// response comes from the store's cached summary, not the pointer.
	if err := s.store.AdmitTenant(req.Name, req.Tenant, sess, sess.M.C.A, sess.M.C.B); err != nil {
		s.writeStoreErr(w, err)
		return
	}
	ei, ok := s.store.Info(req.Name)
	if !ok {
		// Deleted between admit and read-back; report what was admitted.
		ei = sessionstore.EntryInfo{Name: req.Name, State: sessionstore.StateResident}
	}
	writeJSON(w, http.StatusCreated, infoOf(ei))
}

// buildSession is the cold-start path: parse, block, compile, run.
func (s *Server) buildSession(ctx context.Context, a, b *table.Table, req *CreateSessionRequest) (*incremental.Session, error) {
	if req.Rules == "" {
		return nil, errors.New("rules (or a snapshot) are required")
	}
	if (req.Block == "") == (req.BlockTokens == "") {
		return nil, errors.New("exactly one of block or blockTokens is required")
	}
	f, err := rule.ParseFunction(req.Rules)
	if err != nil {
		return nil, fmt.Errorf("parse rules: %w", err)
	}
	var blocker block.DeltaBlocker
	if req.Block != "" {
		blocker = block.AttrEquivalence{Attr: req.Block}
	} else {
		blocker = block.TokenOverlap{Attr: req.BlockTokens, MinShared: 1, MaxTokenFreq: b.Len() / 10}
	}
	pairs, err := blocker.Pairs(a, b)
	if err != nil {
		return nil, err
	}
	c, err := core.Compile(f, sim.Standard(), a, b)
	if err != nil {
		return nil, err
	}
	sess := incremental.NewSessionConfig(c, pairs, s.cfg)
	// Keep the blocker on the session so the records endpoint can block
	// appended records incrementally.
	sess.Blocker = blocker
	if err := sess.Run(ctx); err != nil {
		return nil, err
	}
	return sess, nil
}

func infoOf(ei sessionstore.EntryInfo) SessionInfo {
	info := SessionInfo{
		Name:          ei.Name,
		Pairs:         ei.Meta.Pairs,
		Rules:         ei.Meta.Rules,
		Matches:       ei.Meta.Matches,
		LastOp:        ei.Meta.LastOp,
		State:         ei.State,
		ResidentBytes: ei.ResidentBytes,
		Evictions:     ei.Evictions,
		Reloads:       ei.Reloads,
	}
	if !ei.Created.IsZero() {
		info.Created = ei.Created.UTC().Format(timeLayout)
	}
	if !ei.LastTouch.IsZero() {
		info.LastTouch = ei.LastTouch.UTC().Format(timeLayout)
	}
	return info
}

// hList describes every session, resident or evicted. Listing never
// reloads an evicted session — summaries come from the store's cached
// metadata, so monitoring a budget-constrained server is free.
func (s *Server) hList(w http.ResponseWriter, r *http.Request) {
	infos := s.store.List()
	out := SessionList{Sessions: make([]SessionInfo, 0, len(infos))}
	for _, ei := range infos {
		out.Sessions = append(out.Sessions, infoOf(ei))
	}
	writeJSON(w, http.StatusOK, out)
}

// hGet is a touch: acquiring the handle transparently reloads an
// evicted session, so the returned state is always resident.
func (s *Server) hGet(w http.ResponseWriter, r *http.Request) {
	if !s.waitConsistent(w, r) {
		return
	}
	h, ok := s.acquire(w, r, sessionstore.ModeRead)
	if !ok {
		return
	}
	defer h.Release()
	ei, _ := s.store.Info(h.Name())
	writeJSON(w, http.StatusOK, infoOf(ei))
}

func (s *Server) hDelete(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if !s.store.Remove(name) {
		writeErr(w, http.StatusNotFound, CodeNotFound, fmt.Errorf("no session %q", name))
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) hRules(w http.ResponseWriter, r *http.Request) {
	if !s.waitConsistent(w, r) {
		return
	}
	h, ok := s.acquire(w, r, sessionstore.ModeRead)
	if !ok {
		return
	}
	defer h.Release()
	sess := h.Session()
	out := RuleList{Rules: make([]RuleInfo, len(sess.M.C.Rules))}
	for ri := range sess.M.C.Rules {
		cr := &sess.M.C.Rules[ri]
		info := RuleInfo{Index: ri, Name: cr.Name, Preds: make([]PredInfo, len(cr.Preds))}
		if sess.St != nil {
			info.TrueCount = sess.St.RuleTrue[ri].Count()
		}
		for pj := range cr.Preds {
			p := &cr.Preds[pj]
			feat := sess.M.C.Features[p.Feat].Feature
			pi := PredInfo{
				Index: pj, Key: p.Key,
				Sim: feat.Sim, AttrA: feat.AttrA, AttrB: feat.AttrB,
				Op: p.Op.String(), Threshold: p.Threshold,
			}
			if sess.St != nil {
				pi.FalseCount = sess.St.PredFalse[ri][pj].Count()
			}
			info.Preds[pj] = pi
		}
		out.Rules[ri] = info
	}
	writeJSON(w, http.StatusOK, out)
}

// resolveRule turns an index-or-name rule reference into an index.
func resolveRule(sess *incremental.Session, idx int, name string) (int, error) {
	if name == "" {
		return idx, nil
	}
	for ri := range sess.M.C.Rules {
		if sess.M.C.Rules[ri].Name == name {
			return ri, nil
		}
	}
	return 0, fmt.Errorf("no rule named %q", name)
}

// fenceCheck enforces epoch fencing on a journaled write, before the
// edit touches session state. Two refusals, both 409 stale_epoch:
//
//   - the request's Em-Epoch (the highest epoch the client has seen)
//     exceeds ours — the client proved a newer primary exists, so this
//     node was deposed and fences itself permanently;
//   - the session is already fenced from an earlier proof.
//
// A request Em-Epoch at or below ours is fine: the client is merely
// no newer than us. Returns false after writing the error response.
func (s *Server) fenceCheck(w http.ResponseWriter, r *http.Request, h *sessionstore.Handle) bool {
	if !h.Durable() {
		return true
	}
	if v := r.Header.Get(HeaderEpoch); v != "" {
		ep, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			writeErr(w, http.StatusBadRequest, CodeInvalidRequest, errors.New("bad Em-Epoch: want a decimal epoch"))
			return false
		}
		if ep > h.Epoch() {
			h.Fence()
			writeErr(w, http.StatusConflict, CodeStaleEpoch,
				fmt.Errorf("client has seen epoch %d; this node is at %d and is now fenced", ep, h.Epoch()))
			return false
		}
	}
	if h.Fenced() {
		writeErr(w, http.StatusConflict, CodeStaleEpoch,
			errors.New("node is fenced: a newer replication epoch exists; send writes to the current primary"))
		return false
	}
	return true
}

// setWriteHeaders stamps a successful journaled write's response with
// the sequence the journal assigned (Em-Seq — the client threads it
// into ?consistent= reads and into post-failover replay) and the epoch
// it was written under (Em-Epoch).
func setWriteHeaders(w http.ResponseWriter, h *sessionstore.Handle) {
	if !h.Durable() {
		return
	}
	w.Header().Set(HeaderSeq, strconv.FormatUint(h.Seq(), 10))
	w.Header().Set(HeaderEpoch, strconv.FormatUint(h.Epoch(), 10))
}

// hEdit applies one incremental operation (Algorithms 7–10) under the
// session's write lock. Edit-mode acquisition charges the per-session
// edit quota.
func (s *Server) hEdit(w http.ResponseWriter, r *http.Request) {
	var req EditRequest
	if err := s.decode(w, r, &req); err != nil {
		writeErr(w, http.StatusBadRequest, CodeInvalidRequest, err)
		return
	}
	h, ok := s.acquire(w, r, sessionstore.ModeEdit)
	if !ok {
		return
	}
	defer h.Release()
	if !s.fenceCheck(w, r, h) {
		return
	}
	sess := h.Session()
	ri, err := resolveRule(sess, req.Rule, req.RuleName)
	if err != nil {
		writeErr(w, http.StatusBadRequest, CodeInvalidRequest, err)
		return
	}
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
		err = fmt.Errorf("unknown op %q (want add_predicate, remove_predicate, tighten, relax, set_threshold, add_rule or remove_rule)", req.Op)
	}
	if err != nil {
		writeErr(w, http.StatusBadRequest, CodeInvalidRequest, err)
		return
	}
	// Journal the committed edit before acknowledging it. The record
	// stores the resolved rule index and the same op names wal.Apply
	// replays, so recovery repeats exactly this operation.
	src := req.Predicate
	if req.Op == "add_rule" {
		src = req.RuleSrc
	}
	h.RecordEdit(wal.Record{
		Op: req.Op, Rule: ri, Pred: req.Pred,
		Threshold: req.Threshold, Src: src,
	})
	setWriteHeaders(w, h)
	writeJSON(w, http.StatusOK, EditResponse{
		Report:  reportOf(sess.LastOp),
		Matches: sess.MatchCount(),
		Rules:   len(sess.M.C.Rules),
	})
}

// hRecords applies a batch of record deletes and appends under the
// session's write lock. Deletes go first so retired records never pair
// against the new ones; each kind journals as its own record
// (record_delete, then record_append), in the same order recovery
// replays them. The whole request is validated before anything is
// applied — including that both journal records fit the WAL's record
// size limit, so an oversized batch fails the request instead of
// degrading the session to ephemeral at journaling time.
func (s *Server) hRecords(w http.ResponseWriter, r *http.Request) {
	var req RecordsRequest
	if err := s.decode(w, r, &req); err != nil {
		writeErr(w, http.StatusBadRequest, CodeInvalidRequest, err)
		return
	}
	if len(req.AppendA)+len(req.AppendB)+len(req.DeleteA)+len(req.DeleteB) == 0 {
		writeErr(w, http.StatusBadRequest, CodeInvalidRequest, errors.New("empty batch: nothing to append or delete"))
		return
	}
	aRecs := rowsToRecords(req.AppendA)
	bRecs := rowsToRecords(req.AppendB)
	h, ok := s.acquire(w, r, sessionstore.ModeEdit)
	if !ok {
		return
	}
	defer h.Release()
	if !s.fenceCheck(w, r, h) {
		return
	}
	sess := h.Session()
	if err := sess.ValidateAppend(aRecs, bRecs); err != nil {
		writeErr(w, http.StatusBadRequest, CodeInvalidRequest, err)
		return
	}
	if h.Durable() {
		if err := checkJournalable(&req, aRecs, bRecs); err != nil {
			writeErr(w, http.StatusBadRequest, CodeInvalidRequest, err)
			return
		}
	}
	var resp RecordsResponse
	if len(req.DeleteA)+len(req.DeleteB) > 0 {
		if err := sess.DeleteRecords(req.DeleteA, req.DeleteB); err != nil {
			writeErr(w, http.StatusBadRequest, CodeInvalidRequest, err)
			return
		}
		resp.Deleted = len(req.DeleteA) + len(req.DeleteB)
		rep := reportOf(sess.LastOp)
		resp.DeleteReport = &rep
		h.RecordEdit(wal.Record{Op: "record_delete", DelA: req.DeleteA, DelB: req.DeleteB})
	}
	if len(aRecs)+len(bRecs) > 0 {
		if err := sess.AddRecords(aRecs, bRecs); err != nil {
			writeOpErr(w, err)
			return
		}
		resp.Appended = len(aRecs) + len(bRecs)
		rep := reportOf(sess.LastOp)
		resp.AppendReport = &rep
		h.RecordEdit(wal.Record{Op: "record_append", RecsA: aRecs, RecsB: bRecs})
	}
	resp.Matches = sess.MatchCount()
	resp.Pairs = sess.LivePairCount()
	setWriteHeaders(w, h)
	writeJSON(w, http.StatusOK, resp)
}

// rowsToRecords converts wire rows to table records.
func rowsToRecords(rows []RecordRow) []table.Record {
	if len(rows) == 0 {
		return nil
	}
	out := make([]table.Record, len(rows))
	for i, r := range rows {
		out[i] = table.Record{ID: r.ID, Values: r.Values}
	}
	return out
}

// checkJournalable verifies both journal records a request would emit
// fit the WAL's per-record size limit (with slack for the sequence
// number assigned at append time).
func checkJournalable(req *RecordsRequest, aRecs, bRecs []table.Record) error {
	const seqSlack = 32
	for _, rec := range []wal.Record{
		{Op: "record_delete", DelA: req.DeleteA, DelB: req.DeleteB},
		{Op: "record_append", RecsA: aRecs, RecsB: bRecs},
	} {
		payload, err := json.Marshal(rec)
		if err != nil {
			return fmt.Errorf("encode journal record: %w", err)
		}
		if len(payload)+seqSlack > wal.MaxRecordBytes {
			return fmt.Errorf("batch too large to journal: %d bytes (limit %d); split it into smaller batches",
				len(payload), wal.MaxRecordBytes)
		}
	}
	return nil
}

func reportOf(op incremental.OpReport) OpReport {
	return OpReport{
		Op:             op.Op,
		PairsExamined:  op.PairsExamined,
		OwnershipMoves: op.OwnershipMoves,
		PairsAdded:     op.PairsAdded,
		PairsRemoved:   op.PairsRemoved,
		Stats:          op.Stats,
	}
}

// hRun re-materializes from scratch (with the warm memo) under the
// request context; a cancelled run leaves the previous state standing.
func (s *Server) hRun(w http.ResponseWriter, r *http.Request) {
	h, ok := s.acquire(w, r, sessionstore.ModeWrite)
	if !ok {
		return
	}
	defer h.Release()
	if err := h.Session().Run(r.Context()); err != nil {
		writeOpErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, RunResponse{
		Report:  reportOf(h.Session().LastOp),
		Matches: h.Session().MatchCount(),
	})
}

// hSweep evaluates candidate thresholds for one predicate. The sweep
// reads session state and warms the memo (hence the write lock) but
// never moves a live threshold; cancellation mid-sweep leaves the
// session untouched.
func (s *Server) hSweep(w http.ResponseWriter, r *http.Request) {
	var req SweepRequest
	if err := s.decode(w, r, &req); err != nil {
		writeErr(w, http.StatusBadRequest, CodeInvalidRequest, err)
		return
	}
	h, ok := s.acquire(w, r, sessionstore.ModeWrite)
	if !ok {
		return
	}
	defer h.Release()
	sess := h.Session()
	ri, err := resolveRule(sess, req.Rule, req.RuleName)
	if err != nil {
		writeErr(w, http.StatusBadRequest, CodeInvalidRequest, err)
		return
	}
	thresholds := req.Thresholds
	if len(thresholds) == 0 {
		steps := req.Steps
		if steps == 0 {
			steps = 9
		}
		thresholds = incremental.DefaultSweep(steps)
	}
	points, err := sess.SweepThresholdParallelCtx(r.Context(), ri, req.Pred, thresholds, sess.M.Workers)
	if err != nil {
		writeOpErr(w, err)
		return
	}
	out := SweepResponse{Points: make([]SweepPoint, len(points))}
	for i, p := range points {
		out.Points[i] = SweepPoint{Threshold: p.Threshold, Matches: p.Matched.Count()}
	}
	writeJSON(w, http.StatusOK, out)
}

// matchCursor is the decoded form of the opaque page token: a format
// version and the candidate pair index the next page starts at. The
// pair index is stable across eviction/reload (reload rebuilds the
// identical pair order) and across replica failover (a caught-up
// replica's state is byte-identical), so a client can resume a page
// walk against a different node.
type matchCursor struct {
	V int `json:"v"`
	P int `json:"p"`
}

// encodeCursor packs a pair index into the opaque wire token.
func encodeCursor(p int) string {
	b, _ := json.Marshal(matchCursor{V: 1, P: p})
	return base64.RawURLEncoding.EncodeToString(b)
}

// decodeCursor unpacks a wire token from encodeCursor.
func decodeCursor(s string) (int, error) {
	raw, err := base64.RawURLEncoding.DecodeString(s)
	if err != nil {
		return 0, fmt.Errorf("bad cursor %q", s)
	}
	var c matchCursor
	if err := json.Unmarshal(raw, &c); err != nil || c.V != 1 || c.P < 0 {
		return 0, fmt.Errorf("bad cursor %q", s)
	}
	return c.P, nil
}

// hMatches pages through the matched pairs. Pagination is by opaque
// cursor: pass a response's nextCursor back as ?cursor= until it comes
// back empty. The removed numeric ?offset= is rejected, so an old
// client fails loudly instead of re-reading the first page forever.
func (s *Server) hMatches(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	start, limit := 0, 100
	var err error
	if q.Has("offset") {
		writeErr(w, http.StatusBadRequest, CodeInvalidRequest, errors.New("offset pagination was removed; page with cursor (pass nextCursor back as ?cursor=)"))
		return
	}
	if v := q.Get("cursor"); v != "" {
		if start, err = decodeCursor(v); err != nil {
			writeErr(w, http.StatusBadRequest, CodeInvalidRequest, err)
			return
		}
	}
	if v := q.Get("limit"); v != "" {
		if limit, err = strconv.Atoi(v); err != nil || limit < 1 {
			writeErr(w, http.StatusBadRequest, CodeInvalidRequest, fmt.Errorf("bad limit %q", v))
			return
		}
	}
	if !s.waitConsistent(w, r) {
		return
	}
	h, ok := s.acquire(w, r, sessionstore.ModeRead)
	if !ok {
		return
	}
	defer h.Release()
	sess := h.Session()
	a, b := h.Tables()
	page := MatchPage{Matches: []MatchedPair{}, Total: sess.MatchCount()}
	for pi := start; pi < len(sess.M.Pairs); pi++ {
		if !sess.St.Matched.Get(pi) {
			continue
		}
		if len(page.Matches) == limit {
			page.NextCursor = encodeCursor(pi)
			break
		}
		p := sess.M.Pairs[pi]
		page.Matches = append(page.Matches, MatchedPair{
			Pair: pi,
			IDA:  a.Records[p.A].ID,
			IDB:  b.Records[p.B].ID,
			Rule: owningRule(sess, pi),
		})
	}
	writeJSON(w, http.StatusOK, page)
}

// owningRule names the rule whose RuleTrue bit covers the pair.
func owningRule(sess *incremental.Session, pi int) string {
	for ri := range sess.M.C.Rules {
		if sess.St.RuleTrue[ri].Get(pi) {
			return sess.M.C.Rules[ri].Name
		}
	}
	return ""
}

func (s *Server) hStats(w http.ResponseWriter, r *http.Request) {
	if !s.waitConsistent(w, r) {
		return
	}
	h, ok := s.acquire(w, r, sessionstore.ModeRead)
	if !ok {
		return
	}
	defer h.Release()
	sess := h.Session()
	memo, bitmaps := sess.MemoryBytes()
	st := sess.M.Stats
	rate := 0.0
	if st.MemoHits+st.FeatureComputes > 0 {
		rate = float64(st.MemoHits) / float64(st.MemoHits+st.FeatureComputes)
	}
	var entries int64
	if sess.M.Memo != nil {
		entries = sess.M.Memo.Entries()
	}
	lc := h.Lifecycle()
	resp := StatsResponse{
		Pairs:          len(sess.M.Pairs),
		Rules:          len(sess.M.C.Rules),
		Matches:        sess.MatchCount(),
		MemoBytes:      memo,
		BitmapBytes:    bitmaps,
		MemoEntries:    entries,
		Stats:          st,
		MemoHitRate:    rate,
		LastOp:         reportOf(sess.LastOp),
		PersistErr:     h.PersistErr(),
		State:          lc.State,
		ResidentBytes:  lc.ResidentBytes,
		Evictions:      lc.Evictions,
		Reloads:        lc.Reloads,
		Edits:          lc.Edits,
		MaxEdits:       lc.MaxEdits,
		Tenant:         lc.Tenant,
		TenantEdits:    lc.TenantEdits,
		MaxTenantEdits: lc.MaxTenantEdits,
	}
	if !lc.LastTouch.IsZero() {
		resp.LastTouch = lc.LastTouch.UTC().Format(timeLayout)
	}
	if h.Durable() {
		resp.Durable = true
		resp.Seq = h.Seq()
		resp.JournalBytes = h.JournalBytes()
	}
	if s.Replica() {
		rs := &ReplicationStats{Role: "replica", PrimaryURL: s.PrimaryURL()}
		if s.replicaSrc != nil {
			if applied, ok := s.replicaSrc.AppliedSeq(h.Name()); ok {
				rs.AppliedSeq = applied
			}
			if pseq, ok := s.replicaSrc.PrimarySeq(h.Name()); ok {
				rs.PrimarySeq = pseq
			}
			if rs.PrimarySeq > rs.AppliedSeq {
				rs.Lag = rs.PrimarySeq - rs.AppliedSeq
			}
		}
		resp.Replication = rs
	} else if h.Durable() {
		resp.Replication = &ReplicationStats{Role: "primary", PrimarySeq: h.Seq(), Epoch: h.Epoch()}
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) hVerify(w http.ResponseWriter, r *http.Request) {
	h, ok := s.acquire(w, r, sessionstore.ModeRead)
	if !ok {
		return
	}
	defer h.Release()
	if err := h.Session().Verify(); err != nil {
		writeJSON(w, http.StatusOK, VerifyResponse{OK: false, Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, VerifyResponse{OK: true})
}

// hSnapshot streams the session in persist format — the same bytes
// emdebug's save command writes, so a session can move between the
// service and the CLIs. The snapshot is stamped with the journal
// sequence it covers: the local seq on a primary, the applied seq on a
// replica — so a caught-up replica's snapshot is byte-identical to the
// primary's at the same sequence.
func (s *Server) hSnapshot(w http.ResponseWriter, r *http.Request) {
	if !s.waitConsistent(w, r) {
		return
	}
	h, ok := s.acquire(w, r, sessionstore.ModeRead)
	if !ok {
		return
	}
	defer h.Release()
	seq := h.Seq()
	if s.Replica() && s.replicaSrc != nil {
		if applied, rok := s.replicaSrc.AppliedSeq(h.Name()); rok {
			seq = applied
		}
	}
	var buf bytes.Buffer
	if err := persist.Save(&buf, h.Session(), persist.WithSeq(seq)); err != nil {
		writeErr(w, http.StatusInternalServerError, CodeInternal, err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
	_, _ = buf.WriteTo(w)
}
