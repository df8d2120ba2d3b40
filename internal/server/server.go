// Package server implements the HTTP/JSON debug service behind
// cmd/emserve: named incremental matching sessions edited over the
// paper's Algorithms 7–10 without ever discarding the memo or the
// materialized bitmaps.
//
// Session ownership lives in internal/sessionstore, not here: the
// server is a thin adapter that decodes requests, acquires a session
// handle (read- or write-mode; the store's per-session single-writer
// lock is held for the duration of the request), runs the operation
// and releases. The store enforces memory budgets with LRU eviction
// and transparently reloads an evicted session on the next touch, so
// handlers never see an evicted session — acquisition blocks on the
// reload instead.
//
// Concurrency model: edits, full runs and sweeps (which warm the
// shared memo) take the write side; reads — rule listings, match
// pages, stats, verification, snapshots — share the read side, so a
// slow snapshot download never blocks another reader and an edit waits
// only for in-flight readers. Long operations (full runs, sweeps) run
// under the request context, so a disconnected or timed-out client
// cancels the work; cancelled operations leave the session exactly as
// it was (see incremental.RunFullParallelCtx /
// SweepThresholdParallelCtx).
//
// Robustness: request bodies are capped (MaxBodyBytes), every
// endpoint's count and latency are published through expvar
// (/debug/vars) alongside the store's lifecycle gauges, and
// SetDraining(true) makes the server answer 503 to everything except
// /healthz while http.Server.Shutdown drains in-flight edits.
package server

import (
	"encoding/json"
	"expvar"
	"fmt"
	"net/http"
	"sync/atomic"

	"rulematch/internal/core"
	"rulematch/internal/sessionstore"
)

// DefaultMaxBodyBytes caps request bodies (tables ride inline in
// create requests, so the cap is generous).
const DefaultMaxBodyBytes = 8 << 20

// Server hosts named debug sessions. Create with New, mount Handler.
type Server struct {
	// cfg is the engine configuration every session on this server
	// runs; the store applies the same value on reload and recovery.
	cfg core.Config
	// MaxBodyBytes caps request bodies; set before Handler is called.
	MaxBodyBytes int64

	store    *sessionstore.Store
	draining atomic.Bool

	// replica mode: when primaryURL holds a non-empty string the store
	// is read-only, write routes answer 421 not_primary pointing at it,
	// and replicaSrc (when wired) reports replication progress for
	// /stats. Atomic because promotion (BecomePrimary) clears it while
	// requests are in flight.
	primaryURL atomic.Value // string
	replicaSrc ReplicaSource

	// promotion plumbing: promoter runs the replica manager's
	// promotion (wired by cmd/emserve), promoteToken guards the admin
	// route. Both are set before Handler.
	promoter     PromoteFunc
	promoteToken string
}

// ReplicaSource reports a follower's replication progress. Implemented
// by internal/replica; wired with SetReplicaSource so the server
// package never imports the replication machinery.
type ReplicaSource interface {
	// AppliedSeq returns the last WAL sequence applied to the named
	// session's replayed state, or false if the session is not (yet)
	// replicated here.
	AppliedSeq(name string) (uint64, bool)
	// PrimarySeq returns the primary's last known journal sequence for
	// the named session (the replication target), or false if unknown.
	PrimarySeq(name string) (uint64, bool)
}

// New returns a server whose sessions default to cfg.
func New(cfg core.Config) *Server {
	initMetrics()
	return &Server{
		cfg:          cfg,
		MaxBodyBytes: DefaultMaxBodyBytes,
		store:        sessionstore.New(sessionstore.Config{Core: cfg}),
	}
}

// Store exposes the session store — cmd/emserve and the load
// generator configure limits and read counters through it.
func (s *Server) Store() *sessionstore.Store { return s.store }

// SetLimits configures the store's admission and quota knobs:
// maxSessions caps the session count, memBudget the total resident
// bytes (LRU eviction on a durable server, hard admission cap on an
// ephemeral one), maxEdits the per-session edit quota. Zero values
// mean unlimited.
func (s *Server) SetLimits(maxSessions int, memBudget, maxEdits int64) {
	s.store.SetLimits(maxSessions, memBudget, maxEdits)
}

// Handler builds the mux from the route table (see routes.go), which
// doubles as the OpenAPI source of truth. Go 1.22 method+wildcard
// patterns dispatch; the draining gate and per-endpoint metrics wrap
// every route, and write routes additionally carry the replica gate.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	for _, rt := range routes() {
		pattern := rt.Method + " " + rt.Path
		h := rt.handler(s)
		if rt.Write {
			h = s.requirePrimary(h)
		}
		mux.Handle(pattern, s.instrument(pattern, h))
	}
	mux.HandleFunc("GET /healthz", s.hHealth)
	mux.Handle("GET /debug/vars", expvar.Handler())
	return mux
}

// SetTenantQuota caps cumulative edits per tenant across all of a
// tenant's sessions (0 = unlimited). Counts are in-memory, like the
// per-session edit counts.
func (s *Server) SetTenantQuota(n int64) { s.store.SetTenantQuota(n) }

// SetPrimary switches the server into replica mode: the store refuses
// edits (reads and the replication apply path still work) and write
// routes answer 421 not_primary naming the primary's base URL. Call
// before Handler.
func (s *Server) SetPrimary(url string) {
	s.primaryURL.Store(url)
	s.store.SetReadOnly(true)
}

// Replica reports whether the server is in replica mode.
func (s *Server) Replica() bool { return s.PrimaryURL() != "" }

// PrimaryURL returns the primary's base URL ("" on a primary).
func (s *Server) PrimaryURL() string {
	if v := s.primaryURL.Load(); v != nil {
		return v.(string)
	}
	return ""
}

// SetReplicaSource wires the replication manager's progress view into
// /stats. Call before Handler.
func (s *Server) SetReplicaSource(rs ReplicaSource) { s.replicaSrc = rs }

// SetDraining switches the 503 gate: once draining, every endpoint
// but /healthz refuses new work so http.Server.Shutdown can finish
// the in-flight requests. cmd/emserve flips this on SIGTERM.
func (s *Server) SetDraining(on bool) { s.draining.Store(on) }

// Draining reports whether the drain gate is up.
func (s *Server) Draining() bool { return s.draining.Load() }

// SessionCount returns the number of sessions, resident + evicted.
func (s *Server) SessionCount() int { return s.store.Len() }

func (s *Server) hHealth(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	if s.Draining() {
		status = "draining"
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": status})
}

// decode reads a JSON body under the size cap.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, v any) error {
	r.Body = http.MaxBytesReader(w, r.Body, s.MaxBodyBytes)
	dec := json.NewDecoder(r.Body)
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("decode request: %w", err)
	}
	return nil
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
