package server

import "rulematch/internal/core"

// Wire types of the v1 HTTP/JSON API. All endpoints speak JSON except
// GET .../snapshot, which streams the binary persist format.

// CreateSessionRequest creates a named debug session, either from
// tables + rules + blocking (a cold start: the server compiles, runs
// the full materializing pass and holds the state), or from a persist
// snapshot (base64 in JSON) taken by emmatch -save, emdebug save or a
// previous GET .../snapshot — then only the tables are needed. Every
// session runs the server's engine configuration; there is no
// per-session override.
type CreateSessionRequest struct {
	Name string `json:"name"`
	// Tenant optionally attributes the session to a tenant for
	// aggregate edit-quota accounting (emserve -max-tenant-edits).
	Tenant string `json:"tenant,omitempty"`
	// TableA and TableB are CSV with the id in the first column — the
	// same files the CLIs read, inlined.
	TableA string `json:"tableA"`
	TableB string `json:"tableB"`
	// Rules is the matching function in DSL form. Ignored when
	// Snapshot is set (the snapshot carries the function).
	Rules string `json:"rules,omitempty"`
	// Exactly one of Block (attribute-equivalence) or BlockTokens
	// (token-overlap) selects the blocker. Ignored with Snapshot.
	Block       string `json:"block,omitempty"`
	BlockTokens string `json:"blockTokens,omitempty"`
	// Snapshot is a persist-format session snapshot; encoding/json
	// transports []byte as base64.
	Snapshot []byte `json:"snapshot,omitempty"`
}

// timeLayout formats lifecycle timestamps on the wire.
const timeLayout = "2006-01-02T15:04:05.999999999Z07:00" // time.RFC3339Nano

// SessionInfo summarizes one session. The counts come from the
// store's cached metadata, so listing sessions never forces an
// evicted one back into memory.
type SessionInfo struct {
	Name    string `json:"name"`
	Pairs   int    `json:"pairs"`
	Rules   int    `json:"rules"`
	Matches int    `json:"matches"`
	LastOp  string `json:"lastOp"`
	// State is "resident" (in memory) or "evicted" (compacted to its
	// durable snapshot; the next touch reloads it transparently).
	State string `json:"state"`
	// ResidentBytes is the session's §7.4 memory footprint (memo +
	// bitmaps) as of the last accounting event; 0 while evicted.
	ResidentBytes int64 `json:"residentBytes"`
	// Created and LastTouch are RFC 3339 timestamps; LastTouch moves
	// on every acquisition (any endpoint under the session's name).
	Created   string `json:"created,omitempty"`
	LastTouch string `json:"lastTouch,omitempty"`
	// Evictions and Reloads count this session's round trips through
	// the evicted state.
	Evictions uint64 `json:"evictions"`
	Reloads   uint64 `json:"reloads"`
}

// SessionList is the GET /v1/sessions response.
type SessionList struct {
	Sessions []SessionInfo `json:"sessions"`
}

// PredInfo describes one predicate of one rule.
type PredInfo struct {
	Index     int     `json:"index"`
	Key       string  `json:"key"`
	Sim       string  `json:"sim"`
	AttrA     string  `json:"attrA"`
	AttrB     string  `json:"attrB"`
	Op        string  `json:"op"`
	Threshold float64 `json:"threshold"`
	// FalseCount is how many candidate pairs have a recorded false
	// bit for this predicate — the debugger's "which predicate kills
	// this rule" signal.
	FalseCount int `json:"falseCount"`
}

// RuleInfo describes one rule in current evaluation order.
type RuleInfo struct {
	Index int        `json:"index"`
	Name  string     `json:"name"`
	Preds []PredInfo `json:"preds"`
	// TrueCount is how many matched pairs this rule owns.
	TrueCount int `json:"trueCount"`
}

// RuleList is the GET .../rules response.
type RuleList struct {
	Rules []RuleInfo `json:"rules"`
}

// EditRequest is one incremental rule-set operation (the paper's
// Algorithms 7–10). Rules are addressed by index or by name.
type EditRequest struct {
	// Op is one of: add_predicate, remove_predicate, tighten, relax,
	// set_threshold, add_rule, remove_rule.
	Op       string `json:"op"`
	Rule     int    `json:"rule"`
	RuleName string `json:"ruleName,omitempty"`
	Pred     int    `json:"pred"`
	// Predicate is DSL source (e.g. "jaccard(name, name) >= 0.4") for
	// add_predicate.
	Predicate string `json:"predicate,omitempty"`
	// RuleSrc is DSL source (e.g. "rule r9: ...") for add_rule.
	RuleSrc string `json:"ruleSrc,omitempty"`
	// Threshold for tighten / relax / set_threshold.
	Threshold float64 `json:"threshold"`
}

// OpReport mirrors incremental.OpReport on the wire.
type OpReport struct {
	Op             string     `json:"op"`
	PairsExamined  int        `json:"pairsExamined"`
	OwnershipMoves int        `json:"ownershipMoves"`
	PairsAdded     int        `json:"pairsAdded,omitempty"`
	PairsRemoved   int        `json:"pairsRemoved,omitempty"`
	PairsReclaimed int        `json:"pairsReclaimed,omitempty"`
	Stats          core.Stats `json:"stats"`
}

// EditResponse reports the applied operation and the resulting match
// count.
type EditResponse struct {
	Report  OpReport `json:"report"`
	Matches int      `json:"matches"`
	Rules   int      `json:"rules"`
}

// RecordRow is one record on the wire: its ID plus values aligned
// with the table's attribute order (the CSV column order, id column
// excluded).
type RecordRow struct {
	ID     string   `json:"id"`
	Values []string `json:"values"`
}

// RecordsRequest is the POST .../records body: a batch of record
// appends and/or deletes against the session's tables. Deletes apply
// before appends, so one request can retire records without ever
// pairing the new records against the retired ones. The whole request
// is validated up front — on a non-2xx response nothing was applied.
type RecordsRequest struct {
	AppendA []RecordRow `json:"appendA,omitempty"`
	AppendB []RecordRow `json:"appendB,omitempty"`
	DeleteA []string    `json:"deleteA,omitempty"`
	DeleteB []string    `json:"deleteB,omitempty"`
}

// RecordsResponse reports the applied record operations. DeleteReport
// and AppendReport are present only when the request carried that kind
// of work; AppendReport.PairsExamined counts exactly the delta pairs
// evaluated (the incrementality signal).
type RecordsResponse struct {
	DeleteReport *OpReport `json:"deleteReport,omitempty"`
	AppendReport *OpReport `json:"appendReport,omitempty"`
	Appended     int       `json:"appended"`
	Deleted      int       `json:"deleted"`
	Matches      int       `json:"matches"`
	// Pairs counts live candidate pairs (tombstoned pairs excluded).
	Pairs int `json:"pairs"`
}

// SweepRequest evaluates candidate thresholds for one predicate
// without changing session state. Give explicit Thresholds, or Steps
// for an even spread across (0,1).
type SweepRequest struct {
	Rule       int       `json:"rule"`
	RuleName   string    `json:"ruleName,omitempty"`
	Pred       int       `json:"pred"`
	Thresholds []float64 `json:"thresholds,omitempty"`
	Steps      int       `json:"steps,omitempty"`
}

// SweepPoint is one evaluated threshold.
type SweepPoint struct {
	Threshold float64 `json:"threshold"`
	Matches   int     `json:"matches"`
}

// SweepResponse is the POST .../sweep response.
type SweepResponse struct {
	Points []SweepPoint `json:"points"`
}

// MatchedPair is one matched candidate pair.
type MatchedPair struct {
	// Pair is the pair's current candidate index. It is a position, not
	// an identity: record deletes that reclaim dead pairs, and eviction's
	// compaction, renumber pairs. Key matches by IDA and IDB.
	Pair int    `json:"pair"`
	IDA  string `json:"idA"`
	IDB  string `json:"idB"`
	// Rule is the name of the owning rule (the first rule that
	// evaluates true for the pair).
	Rule string `json:"rule"`
}

// MatchPage is one page of matched pairs. NextCursor is an opaque
// token: pass it back as ?cursor= for the next page; empty on the last
// page. The token names its pair by record IDs, so it survives pair
// renumbering (dead-pair reclamation, eviction/reload) and replica
// failover; once its pair is deleted it answers 410 cursor_expired.
type MatchPage struct {
	Matches    []MatchedPair `json:"matches"`
	NextCursor string        `json:"nextCursor,omitempty"`
	Total      int           `json:"total"`
}

// StatsResponse is the GET .../stats response: the session's memory
// footprint (§7.4) and cumulative work counters.
type StatsResponse struct {
	// Pairs counts live candidate pairs, as the session listing and the
	// records ack do; DeadPairs counts the tombstoned pairs a record
	// delete left behind, which the next reclaiming delete drops (absent
	// when there are none).
	Pairs       int        `json:"pairs"`
	DeadPairs   int        `json:"deadPairs,omitempty"`
	Rules       int        `json:"rules"`
	Matches     int        `json:"matches"`
	MemoBytes   int64      `json:"memoBytes"`
	BitmapBytes int64      `json:"bitmapBytes"`
	MemoEntries int64      `json:"memoEntries"`
	Stats       core.Stats `json:"stats"`
	// MemoHitRate is hits / (hits + computes) over the session's
	// lifetime; 0 when nothing has been looked up yet.
	MemoHitRate float64  `json:"memoHitRate"`
	LastOp      OpReport `json:"lastOp"`
	// Durable reports whether the session is backed by a snapshot +
	// edit journal on disk. False on servers without a datadir, and on
	// sessions degraded to ephemeral after a persistence failure —
	// PersistErr then carries the reason.
	Durable    bool   `json:"durable"`
	PersistErr string `json:"persistError,omitempty"`
	// Seq is the journal sequence of the last committed edit;
	// JournalBytes the current journal size. Both zero when not durable.
	Seq          uint64 `json:"seq,omitempty"`
	JournalBytes int64  `json:"journalBytes,omitempty"`
	// Lifecycle accounting. State is always "resident" here — fetching
	// stats touches the session, reloading it if it was evicted;
	// Evictions/Reloads count its past round trips through the evicted
	// state. Edits counts edit-mode acquisitions against MaxEdits
	// (0 = unlimited).
	State         string `json:"state"`
	ResidentBytes int64  `json:"residentBytes"`
	LastTouch     string `json:"lastTouch,omitempty"`
	Evictions     uint64 `json:"evictions"`
	Reloads       uint64 `json:"reloads"`
	Edits         int64  `json:"edits"`
	MaxEdits      int64  `json:"maxEdits,omitempty"`
	// Tenant accounting: the tenant the session was admitted under and
	// its cumulative edit spend against the per-tenant quota
	// (0 = unlimited).
	Tenant         string `json:"tenant,omitempty"`
	TenantEdits    int64  `json:"tenantEdits,omitempty"`
	MaxTenantEdits int64  `json:"maxTenantEdits,omitempty"`
	// Replication is present on replicas (and on primaries for
	// symmetry): role, the primary's URL, and the follower's progress.
	Replication *ReplicationStats `json:"replication,omitempty"`
}

// ReplicationStats reports a node's replication posture for one
// session. On a replica, AppliedSeq is the last WAL sequence replayed
// into the local state, PrimarySeq the primary's last known sequence,
// and Lag their difference — 0 means caught up as of the last poll.
type ReplicationStats struct {
	Role       string `json:"role"` // "primary" or "replica"
	PrimaryURL string `json:"primaryUrl,omitempty"`
	AppliedSeq uint64 `json:"appliedSeq,omitempty"`
	PrimarySeq uint64 `json:"primarySeq,omitempty"`
	Lag        uint64 `json:"lag"`
	// Epoch is the replication epoch the node's journal stamps (on a
	// primary). Promotion bumps it; see POST /v1/promote.
	Epoch uint64 `json:"epoch,omitempty"`
}

// PromoteResponse is the POST /v1/promote response: the new epoch plus
// every session whose history now continues on this node.
type PromoteResponse struct {
	Epoch    uint64                `json:"epoch"`
	Sessions []PromotedSessionInfo `json:"sessions"`
}

// BootstrapResponse is the GET .../bootstrap payload: the base table
// CSVs plus a snapshot of the current state stamped with the journal
// sequence it covers. encoding/json transports the []byte fields as
// base64. A follower loads Snapshot against TableA/TableB and then
// tails GET .../wal?from=<seq>.
type BootstrapResponse struct {
	Name string `json:"name"`
	// Tenant is the tenant the session was admitted under, replicated
	// so follower stats attribute the session the same way.
	Tenant string `json:"tenant,omitempty"`
	// Seq is the journal sequence the snapshot covers: the first WAL
	// record to apply on top is Seq+1.
	Seq uint64 `json:"seq"`
	// Epoch is the replication epoch the session's journal is writing
	// under. A follower refuses a bootstrap whose epoch is below one it
	// has already seen — that would regress it onto a deposed
	// primary's fork.
	Epoch    uint64 `json:"epoch"`
	TableA   []byte `json:"tableA"`
	TableB   []byte `json:"tableB"`
	Snapshot []byte `json:"snapshot"`
}

// VerifyResponse is the POST .../verify response.
type VerifyResponse struct {
	OK    bool   `json:"ok"`
	Error string `json:"error,omitempty"`
}

// RunResponse is the POST .../run response.
type RunResponse struct {
	Report  OpReport `json:"report"`
	Matches int      `json:"matches"`
}
