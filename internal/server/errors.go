package server

import (
	"context"
	"errors"
	"net/http"

	"rulematch/internal/sessionstore"
	"rulematch/internal/wal"
)

// Machine-readable error codes. Every non-2xx JSON response carries
// exactly one of these in its envelope; clients branch on the code,
// never on the human-readable message. The table is append-only —
// renaming or removing a code is a breaking API change.
const (
	// CodeInvalidRequest: the request is malformed or semantically
	// invalid (bad JSON, missing fields, unknown op, bad threshold).
	CodeInvalidRequest = "invalid_request"
	// CodeNotFound: no session (or other resource) under that name.
	CodeNotFound = "not_found"
	// CodeConflict: a session with that name already exists.
	CodeConflict = "conflict"
	// CodeQuotaExceeded: an admission or edit quota rejected the
	// request (session count, memory budget, per-session or per-tenant
	// edit quota). Retry after deleting sessions or waiting.
	CodeQuotaExceeded = "quota_exceeded"
	// CodeNotPrimary: the write was sent to a read replica. The
	// envelope's primary field names the primary's base URL; resend
	// there.
	CodeNotPrimary = "not_primary"
	// CodeNotDurable: the operation needs a durable session (snapshot +
	// journal on disk) and this one has none.
	CodeNotDurable = "not_durable"
	// CodeWalRotated: the requested WAL range was compacted into the
	// snapshot. Re-bootstrap from the snapshot instead of replaying.
	CodeWalRotated = "wal_rotated"
	// CodeCancelled: the client disconnected or timed out mid-work; the
	// session is unchanged.
	CodeCancelled = "cancelled"
	// CodeInternal: the server's problem, not the client's.
	CodeInternal = "internal"
	// CodeUnavailable: the server is draining for shutdown, or a
	// consistent read's barrier timed out before the replica caught up.
	// Honor the Retry-After header.
	CodeUnavailable = "unavailable"
	// CodeStaleEpoch: the write was refused by fencing — a newer
	// replication epoch exists (this node was deposed as primary, or
	// the request itself proved a newer epoch via Em-Epoch). The write
	// must go to the current primary; this node will never accept it.
	CodeStaleEpoch = "stale_epoch"
	// CodeUnauthorized: the admin endpoint requires the bearer token
	// the server was started with.
	CodeUnauthorized = "unauthorized"
	// CodeCursorExpired: the match cursor can no longer be resumed —
	// the pair it addresses was deleted and reclaimed or compacted
	// away, or the token is in the retired v1 format. Restart the walk
	// without a cursor.
	CodeCursorExpired = "cursor_expired"
)

// ErrorBody is the envelope payload of every non-2xx JSON response.
type ErrorBody struct {
	// Code is one of the Code* constants.
	Code string `json:"code"`
	// Message is human-readable detail. Not stable; do not parse.
	Message string `json:"message"`
	// Primary is set only with code not_primary: the base URL of the
	// node that accepts writes.
	Primary string `json:"primary,omitempty"`
}

// ErrorResponse is the body of every non-2xx JSON response:
// {"error":{"code":"...","message":"..."}}.
type ErrorResponse struct {
	Error ErrorBody `json:"error"`
}

// retryAfterSeconds is the hint sent with every 429/503 envelope. The
// conditions behind those statuses (quota pressure, a drain in
// progress, a replica catching up) clear on the order of seconds, not
// milliseconds, so a single coarse value serves every case.
const retryAfterSeconds = "1"

func writeErr(w http.ResponseWriter, status int, code string, err error) {
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", retryAfterSeconds)
	}
	writeJSON(w, status, ErrorResponse{Error: ErrorBody{Code: code, Message: err.Error()}})
}

// writeStoreErr folds a sessionstore acquisition/admission error into
// the envelope. Quota rejections are 429 (the client can retry after
// deleting sessions or waiting); read-only rejections are 421 with the
// primary's URL (the write belongs there); anything else unrecognized
// is a reload failure, which is the server's problem, not the client's.
func (s *Server) writeStoreErr(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, sessionstore.ErrNotFound):
		writeErr(w, http.StatusNotFound, CodeNotFound, err)
	case errors.Is(err, sessionstore.ErrExists):
		writeErr(w, http.StatusConflict, CodeConflict, err)
	case errors.Is(err, sessionstore.ErrBadName):
		writeErr(w, http.StatusBadRequest, CodeInvalidRequest, err)
	case sessionstore.IsQuota(err):
		writeErr(w, http.StatusTooManyRequests, CodeQuotaExceeded, err)
	case sessionstore.IsReadOnly(err):
		s.writeNotPrimary(w)
	default:
		writeErr(w, http.StatusInternalServerError, CodeInternal, err)
	}
}

// writeNotPrimary rejects a write sent to a replica: 421 Misdirected
// Request with the primary's base URL in the envelope.
func (s *Server) writeNotPrimary(w http.ResponseWriter) {
	writeJSON(w, http.StatusMisdirectedRequest, ErrorResponse{Error: ErrorBody{
		Code:    CodeNotPrimary,
		Message: "this node is a read replica; send writes to the primary",
		Primary: s.PrimaryURL(),
	}})
}

// writeOpErr folds an operation error: cancelled contexts become 503
// (client closed request or timed out; Go's net/http has no 499),
// anything else is a validation failure.
func writeOpErr(w http.ResponseWriter, err error) {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		writeErr(w, http.StatusServiceUnavailable, CodeCancelled, err)
		return
	}
	writeErr(w, http.StatusBadRequest, CodeInvalidRequest, err)
}

// writeWalErr folds a replication-read error: a rotated range is 410
// Gone with wal_rotated (the follower re-bootstraps from the
// snapshot), a non-durable session 409 not_durable.
func writeWalErr(w http.ResponseWriter, err error) {
	if errors.Is(err, wal.ErrRotated) {
		writeErr(w, http.StatusGone, CodeWalRotated, err)
		return
	}
	writeErr(w, http.StatusConflict, CodeNotDurable, err)
}
