package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"rulematch/internal/persist"
	"rulematch/internal/sessionstore"
)

// Replication wire protocol. A follower bootstraps once from
// GET .../bootstrap (base tables + a seq-stamped snapshot), then tails
// GET .../wal?from=<applied>, applying each framed record in order.
// When compaction rotates the journal past a follower's cursor the WAL
// endpoint answers 410 wal_rotated and the follower re-bootstraps.

// maxWalWait caps a long poll's ?wait= budget, on the WAL endpoint
// and the read barrier alike.
const maxWalWait = 30 * time.Second

// walPollInterval is how often pollUntil re-checks.
const walPollInterval = 25 * time.Millisecond

// Em-* headers carry replication coordinates alongside the binary
// frame stream.
const (
	// HeaderSeq is the last sequence included in the response body
	// (equal to ?from when the body is empty).
	HeaderSeq = "Em-Seq"
	// HeaderSnapshotSeq is the primary's current snapshot coverage; a
	// follower whose cursor falls below it must re-bootstrap.
	HeaderSnapshotSeq = "Em-Snapshot-Seq"
	// HeaderEpoch carries the replication epoch. On WAL and write
	// responses it reports the epoch the session's journal is writing
	// under; on write requests it asserts the highest epoch the client
	// has seen — a node behind that epoch fences itself instead of
	// accepting the write (see CodeStaleEpoch).
	HeaderEpoch = "Em-Epoch"
)

// hWal streams framed journal records with Seq > from. When the
// follower is caught up and ?wait is set, the handler long-polls
// (pollUntil), so edits proceed unimpeded.
func (s *Server) hWal(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	var from uint64
	var err error
	if v := q.Get("from"); v != "" {
		if from, err = strconv.ParseUint(v, 10, 64); err != nil {
			writeErr(w, http.StatusBadRequest, CodeInvalidRequest, errors.New("bad from: want a decimal sequence number"))
			return
		}
	}
	wait, err := parseWait(q, 0)
	if err != nil {
		writeErr(w, http.StatusBadRequest, CodeInvalidRequest, err)
		return
	}
	var frames []byte
	var last, snapSeq, epoch uint64
	ok := true
	_, err = pollUntil(r.Context(), wait, func() bool {
		frames, last, snapSeq, epoch, ok = s.walPoll(w, r, from)
		return !ok || len(frames) > 0
	})
	if !ok || err != nil {
		return // error response already written, or the client is gone
	}
	w.Header().Set(HeaderSeq, strconv.FormatUint(last, 10))
	w.Header().Set(HeaderSnapshotSeq, strconv.FormatUint(snapSeq, 10))
	w.Header().Set(HeaderEpoch, strconv.FormatUint(epoch, 10))
	w.Header().Set("Content-Type", "application/octet-stream")
	_, _ = w.Write(frames)
}

// parseWait reads a long poll's ?wait= budget in milliseconds, capped
// at maxWalWait; def when absent.
func parseWait(q url.Values, def time.Duration) (time.Duration, error) {
	v := q.Get("wait")
	if v == "" {
		return def, nil
	}
	ms, err := strconv.Atoi(v)
	if err != nil || ms < 0 {
		return 0, errors.New("bad wait: want milliseconds")
	}
	return time.Duration(min(ms, int(maxWalWait/time.Millisecond))) * time.Millisecond, nil
}

// pollUntil is the one long-poll loop, behind the WAL endpoint and
// the read barrier: it calls check, then again every walPollInterval,
// until check reports true (pollUntil returns true) or wait has
// elapsed (false). check takes and releases whatever session handle
// it needs, so no handle is held across a wait and a waiting poll
// never blocks an edit. It returns the request context's error if the
// client goes away first.
func pollUntil(ctx context.Context, wait time.Duration, check func() bool) (bool, error) {
	deadline := time.Now().Add(wait)
	for {
		if check() {
			return true, nil
		}
		if !time.Now().Before(deadline) {
			return false, nil
		}
		select {
		case <-ctx.Done():
			return false, ctx.Err()
		case <-time.After(walPollInterval):
		}
	}
}

// walPoll does one locked check of the session's journal. It writes
// the error response itself and reports ok=false when the request
// cannot proceed. Lock scope is one call — the long poll's waits
// happen outside, with no handle held.
func (s *Server) walPoll(w http.ResponseWriter, r *http.Request, from uint64) (frames []byte, last, snapSeq, epoch uint64, ok bool) {
	h, acquired := s.acquire(w, r, sessionstore.ModeRead)
	if !acquired {
		return nil, 0, 0, 0, false
	}
	defer h.Release()
	if !h.Durable() {
		writeErr(w, http.StatusConflict, CodeNotDurable, errors.New("session is not durable: no journal to ship"))
		return nil, 0, 0, 0, false
	}
	snapSeq = h.SnapshotSeq()
	epoch = h.Epoch()
	frames, last, err := h.WalFrames(from)
	if err != nil {
		w.Header().Set(HeaderSnapshotSeq, strconv.FormatUint(snapSeq, 10))
		writeWalErr(w, err)
		return nil, 0, 0, 0, false
	}
	return frames, last, snapSeq, epoch, true
}

// hBootstrap ships everything a follower needs to start replicating a
// session: the base table CSVs (what the snapshot's base lengths refer
// to) and a snapshot of the current state stamped with the journal
// sequence it covers. A follower loads the snapshot against the base
// tables and then tails /wal?from=<seq>.
func (s *Server) hBootstrap(w http.ResponseWriter, r *http.Request) {
	h, ok := s.acquire(w, r, sessionstore.ModeRead)
	if !ok {
		return
	}
	defer h.Release()
	if !h.Durable() {
		writeErr(w, http.StatusConflict, CodeNotDurable, errors.New("session is not durable: nothing to bootstrap from"))
		return
	}
	a, b, err := h.BaseTables()
	if err != nil {
		writeErr(w, http.StatusInternalServerError, CodeInternal, err)
		return
	}
	var buf bytes.Buffer
	if err := persist.Save(&buf, h.Session(), persist.WithSeq(h.Seq())); err != nil {
		writeErr(w, http.StatusInternalServerError, CodeInternal, err)
		return
	}
	writeJSON(w, http.StatusOK, BootstrapResponse{
		Name:     h.Name(),
		Tenant:   h.Tenant(),
		Seq:      h.Seq(),
		Epoch:    h.Epoch(),
		TableA:   a,
		TableB:   b,
		Snapshot: buf.Bytes(),
	})
}

// Read-your-writes barrier. A client that wrote through the primary
// received the journal sequence of its write in the Em-Seq response
// header; passing it back as ?consistent=<seq> on a GET makes a
// replica hold the request — bounded, re-checking on the same cadence
// as the WAL long poll — until its applied sequence reaches it, and
// answer 503 unavailable (with Retry-After) if it cannot within the
// deadline. On a primary the barrier is satisfied by the journal
// itself.

// defaultBarrierWait is the barrier's deadline when the request does
// not set ?wait=.
const defaultBarrierWait = 5 * time.Second

// waitConsistent enforces the ?consistent=<seq> read barrier. It
// returns false after writing the error response itself; true means
// the handler may proceed (including the no-barrier case). It never
// holds a session handle across a wait.
func (s *Server) waitConsistent(w http.ResponseWriter, r *http.Request) bool {
	q := r.URL.Query()
	v := q.Get("consistent")
	if v == "" {
		return true
	}
	seq, err := strconv.ParseUint(v, 10, 64)
	if err != nil {
		writeErr(w, http.StatusBadRequest, CodeInvalidRequest, errors.New("bad consistent: want a decimal sequence number"))
		return false
	}
	wait, err := parseWait(q, defaultBarrierWait)
	if err != nil {
		writeErr(w, http.StatusBadRequest, CodeInvalidRequest, err)
		return false
	}
	name := r.PathValue("name")
	var applied uint64
	reached, err := pollUntil(r.Context(), wait, func() bool {
		var known bool
		applied, known = s.appliedSeq(name)
		return known && applied >= seq
	})
	switch {
	case reached:
		return true
	case err != nil:
		writeErr(w, http.StatusServiceUnavailable, CodeCancelled, err)
	default:
		writeErr(w, http.StatusServiceUnavailable, CodeUnavailable,
			fmt.Errorf("read barrier: applied sequence %d has not reached %d", applied, seq))
	}
	return false
}

// appliedSeq reports how much of the named session's history this node
// has: the replication cursor on a replica, the journal sequence on a
// primary. The primary check takes and releases a read handle per
// call — the barrier's waits happen with no handle held, so it can
// never block the very writes it is waiting for.
func (s *Server) appliedSeq(name string) (uint64, bool) {
	if s.Replica() {
		if s.replicaSrc == nil {
			return 0, false
		}
		return s.replicaSrc.AppliedSeq(name)
	}
	h, err := s.store.Acquire(name, sessionstore.ModeRead)
	if err != nil {
		return 0, false
	}
	defer h.Release()
	return h.Seq(), true
}
