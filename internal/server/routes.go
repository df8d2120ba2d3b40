package server

import "net/http"

// The route table is the single source of truth for the v1 API: both
// Handler (mux registration, replica write-gating, instrumentation)
// and the OpenAPI document generator walk this slice. Adding an
// endpoint here registers it and documents it in one step; an endpoint
// that exists but is absent from the table is a bug the coverage test
// catches.

// querySpec documents one query parameter.
type querySpec struct {
	Name string
	Type string // OpenAPI primitive: string, integer, boolean
	Doc  string
}

// routeSpec declares one endpoint: its mux pattern, its wire types for
// the OpenAPI document, the error codes it can return, and whether it
// is a write (writes are refused on replicas with 421 not_primary).
type routeSpec struct {
	Method  string
	Path    string
	Summary string
	// Write marks routes that mutate session state through the journal
	// (or create/destroy sessions). On a replica they answer 421
	// not_primary; reads, runs and sweeps serve everywhere.
	Write bool
	// Request and Response are zero values of the wire types; nil means
	// no body. Binary marks an application/octet-stream response.
	Request  any
	Response any
	Binary   bool
	Query    []querySpec
	// ErrCodes lists the machine codes this endpoint can produce, in
	// addition to unavailable (the drain gate covers every route).
	ErrCodes []string
	handler  func(*Server) http.HandlerFunc
}

// consistentQuery documents the read-your-writes barrier parameters
// shared by the barrier-capable GET routes (see waitConsistent).
func consistentQuery() []querySpec {
	return []querySpec{
		{Name: "consistent", Type: "integer", Doc: "read barrier: hold the request until this node has applied the given journal sequence (thread a write's Em-Seq here); 503 unavailable with Retry-After on timeout"},
		{Name: "wait", Type: "integer", Doc: "barrier deadline in milliseconds (default 5000, max 30000); only meaningful with consistent"},
	}
}

// routes returns the v1 route table. The order is the order endpoints
// appear in the OpenAPI document.
func routes() []routeSpec {
	return []routeSpec{
		{
			Method: "POST", Path: "/v1/sessions",
			Summary: "Create a session from inline tables plus rules and a blocker, or a persist snapshot",
			Write:   true,
			Request: CreateSessionRequest{}, Response: SessionInfo{},
			ErrCodes: []string{CodeInvalidRequest, CodeConflict, CodeQuotaExceeded, CodeCancelled, CodeNotPrimary},
			handler:  func(s *Server) http.HandlerFunc { return s.hCreate },
		},
		{
			Method: "GET", Path: "/v1/sessions",
			Summary:  "List every session (resident or evicted) from cached metadata",
			Response: SessionList{},
			handler:  func(s *Server) http.HandlerFunc { return s.hList },
		},
		{
			Method: "GET", Path: "/v1/sessions/{name}",
			Summary:  "Describe one session (touches it: an evicted session reloads)",
			Response: SessionInfo{},
			Query:    consistentQuery(),
			ErrCodes: []string{CodeInvalidRequest, CodeNotFound, CodeUnavailable, CodeInternal},
			handler:  func(s *Server) http.HandlerFunc { return s.hGet },
		},
		{
			Method: "DELETE", Path: "/v1/sessions/{name}",
			Summary:  "Delete a session and its durable home",
			Write:    true,
			ErrCodes: []string{CodeNotFound, CodeNotPrimary},
			handler:  func(s *Server) http.HandlerFunc { return s.hDelete },
		},
		{
			Method: "GET", Path: "/v1/sessions/{name}/rules",
			Summary:  "List rules with per-predicate thresholds, false counts and ownership counts",
			Response: RuleList{},
			Query:    consistentQuery(),
			ErrCodes: []string{CodeInvalidRequest, CodeNotFound, CodeUnavailable, CodeInternal},
			handler:  func(s *Server) http.HandlerFunc { return s.hRules },
		},
		{
			Method: "POST", Path: "/v1/sessions/{name}/edits",
			Summary: "Apply one incremental rule-set operation (Algorithms 7-10)",
			Write:   true,
			Request: EditRequest{}, Response: EditResponse{},
			ErrCodes: []string{CodeInvalidRequest, CodeNotFound, CodeQuotaExceeded, CodeNotPrimary, CodeStaleEpoch, CodeInternal},
			handler:  func(s *Server) http.HandlerFunc { return s.hEdit },
		},
		{
			Method: "POST", Path: "/v1/sessions/{name}/records",
			Summary: "Append and/or delete records in one validated batch (deletes first)",
			Write:   true,
			Request: RecordsRequest{}, Response: RecordsResponse{},
			ErrCodes: []string{CodeInvalidRequest, CodeNotFound, CodeQuotaExceeded, CodeCancelled, CodeNotPrimary, CodeStaleEpoch, CodeInternal},
			handler:  func(s *Server) http.HandlerFunc { return s.hRecords },
		},
		{
			Method: "POST", Path: "/v1/sessions/{name}/run",
			Summary:  "Re-materialize from scratch with the warm memo (state-preserving on cancel)",
			Response: RunResponse{},
			ErrCodes: []string{CodeNotFound, CodeCancelled, CodeInternal},
			handler:  func(s *Server) http.HandlerFunc { return s.hRun },
		},
		{
			Method: "POST", Path: "/v1/sessions/{name}/sweep",
			Summary: "Evaluate candidate thresholds for one predicate without moving it",
			Request: SweepRequest{}, Response: SweepResponse{},
			ErrCodes: []string{CodeInvalidRequest, CodeNotFound, CodeCancelled, CodeInternal},
			handler:  func(s *Server) http.HandlerFunc { return s.hSweep },
		},
		{
			Method: "GET", Path: "/v1/sessions/{name}/matches",
			Summary:  "Page through matched pairs with an opaque cursor",
			Response: MatchPage{},
			Query: append([]querySpec{
				{Name: "cursor", Type: "string", Doc: "opaque page token from a previous response's nextCursor"},
				{Name: "limit", Type: "integer", Doc: "page size (default 100)"},
			}, consistentQuery()...),
			ErrCodes: []string{CodeInvalidRequest, CodeNotFound, CodeCursorExpired, CodeUnavailable, CodeInternal},
			handler:  func(s *Server) http.HandlerFunc { return s.hMatches },
		},
		{
			Method: "GET", Path: "/v1/sessions/{name}/stats",
			Summary:  "Memory footprint, work counters, lifecycle, durability and replication state",
			Response: StatsResponse{},
			Query:    consistentQuery(),
			ErrCodes: []string{CodeInvalidRequest, CodeNotFound, CodeUnavailable, CodeInternal},
			handler:  func(s *Server) http.HandlerFunc { return s.hStats },
		},
		{
			Method: "POST", Path: "/v1/sessions/{name}/verify",
			Summary:  "Check the incremental state against a from-scratch evaluation",
			Response: VerifyResponse{},
			ErrCodes: []string{CodeNotFound, CodeInternal},
			handler:  func(s *Server) http.HandlerFunc { return s.hVerify },
		},
		{
			Method: "GET", Path: "/v1/sessions/{name}/snapshot",
			Summary:  "Stream the session in persist format (interchangeable with the CLIs)",
			Binary:   true,
			Query:    consistentQuery(),
			ErrCodes: []string{CodeInvalidRequest, CodeNotFound, CodeUnavailable, CodeInternal},
			handler:  func(s *Server) http.HandlerFunc { return s.hSnapshot },
		},
		{
			Method: "GET", Path: "/v1/sessions/{name}/wal",
			Summary: "Stream framed journal records after a cursor (long-polls when caught up)",
			Binary:  true,
			Query: []querySpec{
				{Name: "from", Type: "integer", Doc: "last sequence the caller has applied; the response starts at from+1"},
				{Name: "wait", Type: "integer", Doc: "long-poll budget in milliseconds when caught up (default 0, max 30000)"},
			},
			ErrCodes: []string{CodeInvalidRequest, CodeNotFound, CodeNotDurable, CodeWalRotated, CodeInternal},
			handler:  func(s *Server) http.HandlerFunc { return s.hWal },
		},
		{
			Method: "GET", Path: "/v1/sessions/{name}/bootstrap",
			Summary:  "Fetch base tables plus a seq-stamped snapshot: everything a follower needs to start",
			Response: BootstrapResponse{},
			ErrCodes: []string{CodeNotFound, CodeNotDurable, CodeInternal},
			handler:  func(s *Server) http.HandlerFunc { return s.hBootstrap },
		},
		{
			Method: "POST", Path: "/v1/promote",
			Summary: "Promote this replica to primary under a new fenced epoch (admin; bearer token when configured)",
			// Deliberately not Write: write routes answer 421 on
			// replicas, and promotion only makes sense on a replica.
			Response: PromoteResponse{},
			ErrCodes: []string{CodeUnauthorized, CodeConflict, CodeInternal},
			handler:  func(s *Server) http.HandlerFunc { return s.hPromote },
		},
		{
			Method: "GET", Path: "/v1/openapi.json",
			Summary: "This document, generated from the same route table the mux serves",
			handler: func(s *Server) http.HandlerFunc { return s.hOpenAPI },
		},
	}
}

// requirePrimary gates a write route: replicas answer 421 not_primary
// with the primary's base URL in the envelope.
func (s *Server) requirePrimary(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.Replica() {
			s.writeNotPrimary(w)
			return
		}
		h(w, r)
	}
}
