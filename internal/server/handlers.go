package server

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
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
		// bitmaps; only the engine configuration needs applying.
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
	// The record stores the resolved rule index and is applied through
	// wal.Apply, the dispatcher recovery and followers replay it with,
	// so they repeat exactly this operation.
	rec := wal.Record{Op: req.Op, Rule: ri, Pred: req.Pred, Threshold: req.Threshold, Src: req.Predicate}
	switch req.Op {
	case "add_rule":
		rec.Src = req.RuleSrc
	case "add_predicate", "remove_predicate", "tighten", "relax", "set_threshold", "remove_rule":
	default:
		writeErr(w, http.StatusBadRequest, CodeInvalidRequest,
			fmt.Errorf("unknown op %q (want add_predicate, remove_predicate, tighten, relax, set_threshold, add_rule or remove_rule)", req.Op))
		return
	}
	if err := wal.Apply(sess, rec); err != nil {
		writeErr(w, http.StatusBadRequest, CodeInvalidRequest, err)
		return
	}
	// Journal the committed edit before acknowledging it.
	h.RecordEdit(rec)
	setWriteHeaders(w, h)
	writeJSON(w, http.StatusOK, EditResponse{
		Report:  reportOf(sess.LastOp),
		Matches: sess.MatchCount(),
		Rules:   len(sess.M.C.Rules),
	})
}

// hRecords applies a batch of record deletes and appends under the
// session's write lock. Deletes go first so retired records never pair
// against the new ones; each kind is its own record (record_delete,
// then record_append), applied through wal.Apply and journaled in the
// same order recovery replays them. The whole request is validated
// before anything is applied — including that both journal records fit
// the WAL's record size limit, so an oversized batch fails the request
// instead of degrading the session to ephemeral at journaling time.
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
	del := wal.Record{Op: "record_delete", DelA: req.DeleteA, DelB: req.DeleteB}
	app := wal.Record{Op: "record_append", RecsA: rowsToRecords(req.AppendA), RecsB: rowsToRecords(req.AppendB)}
	h, ok := s.acquire(w, r, sessionstore.ModeEdit)
	if !ok {
		return
	}
	defer h.Release()
	if !s.fenceCheck(w, r, h) {
		return
	}
	sess := h.Session()
	if err := sess.ValidateAppend(app.RecsA, app.RecsB); err != nil {
		writeErr(w, http.StatusBadRequest, CodeInvalidRequest, err)
		return
	}
	if h.Durable() {
		if err := checkJournalable(del, app); err != nil {
			writeErr(w, http.StatusBadRequest, CodeInvalidRequest, err)
			return
		}
	}
	var resp RecordsResponse
	if len(del.DelA)+len(del.DelB) > 0 {
		if err := wal.Apply(sess, del); err != nil {
			writeErr(w, http.StatusBadRequest, CodeInvalidRequest, err)
			return
		}
		resp.Deleted = len(del.DelA) + len(del.DelB)
		rep := reportOf(sess.LastOp)
		resp.DeleteReport = &rep
		h.RecordEdit(del)
	}
	if len(app.RecsA)+len(app.RecsB) > 0 {
		if err := wal.Apply(sess, app); err != nil {
			writeOpErr(w, err)
			return
		}
		resp.Appended = len(app.RecsA) + len(app.RecsB)
		rep := reportOf(sess.LastOp)
		resp.AppendReport = &rep
		h.RecordEdit(app)
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

// checkJournalable verifies the journal records a request would emit
// fit the WAL's per-record size limit (with slack for the sequence
// number assigned at append time).
func checkJournalable(recs ...wal.Record) error {
	const seqSlack = 32
	for _, rec := range recs {
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
		PairsReclaimed: op.PairsReclaimed,
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

// maxSweepPoints caps the thresholds one sweep evaluates, whether
// given as Steps or as Thresholds. Every point allocates a bitmap over
// all candidate pairs, so without a cap one small request could claim
// gigabytes.
const maxSweepPoints = 1024

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
	if req.Steps > maxSweepPoints || len(req.Thresholds) > maxSweepPoints {
		writeErr(w, http.StatusBadRequest, CodeInvalidRequest, fmt.Errorf(
			"a sweep evaluates at most %d points (got steps %d, %d thresholds)",
			maxSweepPoints, req.Steps, len(req.Thresholds)))
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

// matchCursor is the decoded form of the opaque page token: the
// candidate pair the next page starts at, as its index plus a
// fingerprint of its record IDs. Pair indices are not stable: record
// deletes reclaim dead pairs in a resident session, and eviction
// compacts them away, both renumbering the survivors to lower indices
// in the same order. So a resume starts at the index when the pair
// there carries the fingerprint and otherwise scans down from it; a
// pair that is gone expires the cursor (410 cursor_expired). A
// caught-up replica's state is byte-identical to the primary's, so a
// client can also resume a walk against a different node.
//
// Wire form: unpadded base64url of the version byte cursorVersion, the
// pair index as a minimal uvarint and the big-endian 64-bit FNV-1a hash
// of idA, 0x00, idB. The v1 form (JSON {"v":1,"p":N}) carried only an
// index, which renumbering silently shifts; v1 tokens expire.
type matchCursor struct {
	pair int
	fp   uint64
}

const cursorVersion = 2

// errCursorExpired is decodeCursor's answer to a v1 token.
var errCursorExpired = errors.New("cursor expired: v1 cursors are retired; restart the walk without a cursor")

// pairFingerprint is FNV-1a 64 (hash/fnv's New64a) over idA, a zero
// byte and idB, inlined so the resume scan allocates nothing.
func pairFingerprint(idA, idB string) uint64 {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	for i := 0; i < len(idA); i++ {
		h = (h ^ uint64(idA[i])) * prime64
	}
	h *= prime64 // the separator: h ^ 0 == h
	for i := 0; i < len(idB); i++ {
		h = (h ^ uint64(idB[i])) * prime64
	}
	return h
}

// encodeCursor packs a cursor into the opaque wire token.
func encodeCursor(c matchCursor) string {
	buf := make([]byte, 0, 1+binary.MaxVarintLen64+8)
	buf = append(buf, cursorVersion)
	buf = binary.AppendUvarint(buf, uint64(c.pair))
	buf = binary.BigEndian.AppendUint64(buf, c.fp)
	return base64.RawURLEncoding.EncodeToString(buf)
}

// decodeCursor unpacks a wire token from encodeCursor. It accepts only
// canonical tokens — the ones encodeCursor produces — and answers
// errCursorExpired for a v1 token.
func decodeCursor(s string) (matchCursor, error) {
	bad := fmt.Errorf("bad cursor %q", s)
	raw, err := base64.RawURLEncoding.DecodeString(s)
	if err != nil || base64.RawURLEncoding.EncodeToString(raw) != s || len(raw) == 0 {
		return matchCursor{}, bad
	}
	if raw[0] == '{' {
		var v1 struct {
			V int `json:"v"`
			P int `json:"p"`
		}
		if json.Unmarshal(raw, &v1) == nil && v1.V == 1 && v1.P >= 0 {
			return matchCursor{}, errCursorExpired
		}
		return matchCursor{}, bad
	}
	if raw[0] != cursorVersion {
		return matchCursor{}, bad
	}
	p, n := binary.Uvarint(raw[1:])
	if n <= 0 || n != len(binary.AppendUvarint(nil, p)) || p > math.MaxInt32 || len(raw) != 1+n+8 {
		return matchCursor{}, bad
	}
	return matchCursor{pair: int(p), fp: binary.BigEndian.Uint64(raw[1+n:])}, nil
}

// cursorAt builds the cursor addressing pair pi.
func cursorAt(sess *incremental.Session, a, b *table.Table, pi int) matchCursor {
	p := sess.M.Pairs[pi]
	return matchCursor{pair: pi, fp: pairFingerprint(a.Records[p.A].ID, b.Records[p.B].ID)}
}

// resumeAt finds the pair a cursor addresses: at its index when the
// fingerprint still matches there, otherwise at the nearest lower index
// that carries it (renumbering only ever moves pairs down).
func resumeAt(sess *incremental.Session, a, b *table.Table, c matchCursor) (int, bool) {
	for pi := min(c.pair, len(sess.M.Pairs)-1); pi >= 0; pi-- {
		if cursorAt(sess, a, b, pi).fp == c.fp {
			return pi, true
		}
	}
	return 0, false
}

// hMatches pages through the matched pairs. Pagination is by opaque
// cursor: pass a response's nextCursor back as ?cursor= until it comes
// back empty. The removed numeric ?offset= is rejected, so an old
// client fails loudly instead of re-reading the first page forever.
func (s *Server) hMatches(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	limit := 100
	var cur *matchCursor
	if q.Has("offset") {
		writeErr(w, http.StatusBadRequest, CodeInvalidRequest, errors.New("offset pagination was removed; page with cursor (pass nextCursor back as ?cursor=)"))
		return
	}
	if v := q.Get("cursor"); v != "" {
		c, err := decodeCursor(v)
		switch {
		case errors.Is(err, errCursorExpired):
			writeErr(w, http.StatusGone, CodeCursorExpired, err)
			return
		case err != nil:
			writeErr(w, http.StatusBadRequest, CodeInvalidRequest, err)
			return
		}
		cur = &c
	}
	if v := q.Get("limit"); v != "" {
		var err error
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
	start := 0
	if cur != nil {
		if start, ok = resumeAt(sess, a, b, *cur); !ok {
			writeErr(w, http.StatusGone, CodeCursorExpired,
				errors.New("cursor expired: the pair it addresses was deleted; restart the walk without a cursor"))
			return
		}
	}
	page := MatchPage{Matches: []MatchedPair{}, Total: sess.MatchCount()}
	for pi := start; pi < len(sess.M.Pairs); pi++ {
		if !sess.St.Matched.Get(pi) {
			continue
		}
		if len(page.Matches) == limit {
			page.NextCursor = encodeCursor(cursorAt(sess, a, b, pi))
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
		Pairs:          sess.LivePairCount(),
		DeadPairs:      sess.NumDead(),
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
