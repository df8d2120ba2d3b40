// Package sessionstore owns the lifecycle of named debugging sessions:
// admission, per-session single-writer locking, memory accounting
// against a configurable budget, LRU eviction to the session's durable
// home (snapshot + rotated journal, heap state dropped), and
// transparent reload on the next touch. The HTTP layer
// (internal/server) is a thin adapter over Acquire/Release; nothing
// above this package holds a session pointer across requests, so an
// eviction can never race an in-flight edit.
//
// Lifecycle state machine (per session):
//
//	          Admit / RecoverAll
//	                 │
//	                 ▼
//	   ┌───────── resident ─────────┐
//	   │   (heap state + open WAL)  │
//	evict: compact → snapshot,      │ Acquire on an evicted
//	rotate journal, drop heap       │ session: wal.Open →
//	   │                            │ snapshot + journal replay
//	   ▼                            │
//	  evicted ──────────────────────┘
//	   (disk only: tables, snapshot, journal)
//
// Remove destroys either state; a degraded (ephemeral) session has no
// disk home and is pinned resident.
//
// Locking: each Entry has a single-writer RWMutex guarding its heap
// state; the Store mutex guards the name map, the LRU list and all
// accounting. The order is entry → store (an entry lock holder may
// take the store lock, never the reverse); the evictor only ever
// TryLocks a victim, so it cannot deadlock against a request holding
// the entry lock while waiting for accounting.
package sessionstore

import (
	"container/list"
	"errors"
	"fmt"
	"log"
	"sync"
	"time"

	"rulematch/internal/core"
	"rulematch/internal/incremental"
	"rulematch/internal/persist"
	"rulematch/internal/sim"
	"rulematch/internal/table"
	"rulematch/internal/wal"
)

// Sentinel errors; the HTTP layer maps them to status codes with
// errors.Is.
var (
	// ErrNotFound: no session with that name.
	ErrNotFound = errors.New("session not found")
	// ErrExists: Admit of a name already in use.
	ErrExists = errors.New("session already exists")
	// ErrBadName: the name is not filesystem-safe (durable stores only).
	ErrBadName = errors.New("invalid session name")
	// ErrTooManySessions: Admit would exceed MaxSessions.
	ErrTooManySessions = errors.New("session quota exhausted")
	// ErrSessionTooLarge: the session cannot fit the memory budget even
	// with every other session evicted.
	ErrSessionTooLarge = errors.New("session exceeds memory budget")
	// ErrEditQuota: the per-session edit quota is exhausted.
	ErrEditQuota = errors.New("edit quota exhausted")
	// ErrTenantQuota: the per-tenant edit quota is exhausted.
	ErrTenantQuota = errors.New("tenant edit quota exhausted")
	// ErrReadOnly: the store is read-only (a replica); edits belong on
	// the primary.
	ErrReadOnly = errors.New("store is read-only")
)

// Lifecycle states reported by List and stats.
const (
	StateResident = "resident"
	StateEvicted  = "evicted"
)

// Config shapes a Store.
type Config struct {
	// Core is the engine configuration sessions run under; reloads
	// re-apply it (snapshots do not carry the engine configuration).
	Core core.Config
	// Lib resolves similarity functions on reload; nil = sim.Standard().
	Lib *sim.Library
	// MaxSessions caps the total session count, resident + evicted.
	// <=0 = unlimited.
	MaxSessions int
	// MemBudget caps total resident bytes (memo + bitmaps, §7.4).
	// Exceeding it triggers LRU eviction on a durable store; on an
	// ephemeral store it is a hard admission cap. <=0 = unlimited.
	MemBudget int64
	// MaxEdits caps write-class operations per session (edits, record
	// batches). <=0 = unlimited.
	MaxEdits int64
	// MaxTenantEdits caps write-class operations per tenant, summed over
	// every session the tenant owns (sessions admitted without a tenant
	// share the "" bucket). <=0 = unlimited.
	MaxTenantEdits int64
}

// Store is the lifecycle manager. Create with New.
type Store struct {
	mu       sync.Mutex
	cfg      Config
	sessions map[string]*Entry
	lru      *list.List // Front = most recently touched

	resident      int
	residentBytes int64
	evictedTotal  uint64
	reloadedTotal uint64

	// tenantEdits accumulates edit-mode acquisitions per tenant over the
	// store's lifetime (deleting a session does not refund its tenant).
	tenantEdits map[string]int64

	// readOnly refuses ModeEdit acquisitions: the store belongs to a
	// replica, whose sessions are mutated only by the replication
	// apply path (ModeApply).
	readOnly bool

	// epoch is the node's replication epoch: freshly created session
	// journals are stamped with it, and promotion raises it so the new
	// primary's history is distinguishable from the deposed one's.
	epoch uint64

	dur     Durability
	durable bool
}

// Entry is one named session in any lifecycle state.
type Entry struct {
	name    string
	tenant  string
	created time.Time

	// mu is the session's single-writer lock, held for the duration of
	// a request via Handle. It guards the heap state below.
	mu         sync.RWMutex
	sess       *incremental.Session // nil when evicted
	a, b       *table.Table
	wst        *wal.Store // nil when evicted or ephemeral/degraded
	persistErr string
	removed    bool
	// dirty: state changed since the last snapshot-covering event
	// (admit, reload, evict-compaction). A clean entry evicts without
	// rewriting its snapshot.
	dirty bool

	// The fields below are guarded by the owning Store's mu.
	resident    bool
	unevictable bool // degraded or evict-failed: pinned resident
	bytes       int64
	lastTouch   time.Time
	edits       int64
	evictions   uint64
	reloads     uint64
	elem        *list.Element
	meta        Meta
}

// Meta is the cached listing summary, refreshed at admit, reload and
// write-release — so GET /v1/sessions never has to reload an evicted
// session just to describe it.
type Meta struct {
	Pairs   int
	Rules   int
	Matches int
	LastOp  string
}

// EntryInfo is one session's lifecycle view for listings.
type EntryInfo struct {
	Name          string
	Tenant        string
	State         string
	ResidentBytes int64
	Created       time.Time
	LastTouch     time.Time
	Evictions     uint64
	Reloads       uint64
	Meta          Meta
}

// Counters is the store-wide accounting snapshot.
type Counters struct {
	Sessions      int
	Resident      int
	ResidentBytes int64
	EvictedTotal  uint64
	ReloadedTotal uint64
}

// Mode classifies an acquisition.
type Mode int

const (
	// ModeRead shares the session with other readers.
	ModeRead Mode = iota
	// ModeWrite takes the single-writer lock (runs, sweeps).
	ModeWrite
	// ModeEdit is ModeWrite plus the per-session and per-tenant edit
	// quotas; refused on a read-only store.
	ModeEdit
	// ModeApply is the replication apply path: the single-writer lock
	// with no quota charge, permitted even on a read-only store — the
	// edits it applies were already admitted (and charged) on the
	// primary.
	ModeApply
)

// Handle is an acquired session. It pins the session resident — the
// evictor skips locked entries — and must be Released exactly once.
type Handle struct {
	s     *Store
	e     *Entry
	write bool
}

// New returns an empty store.
func New(cfg Config) *Store {
	initMetrics()
	return &Store{
		cfg:         cfg,
		sessions:    make(map[string]*Entry),
		lru:         list.New(),
		tenantEdits: make(map[string]int64),
	}
}

// SetReadOnly flips the store's read-only gate: when set, ModeEdit
// acquisitions fail with ErrReadOnly. Replica servers set this so a
// mis-routed write can never mutate follower state; the replication
// loop itself uses ModeApply, which the gate does not cover.
func (s *Store) SetReadOnly(on bool) {
	s.mu.Lock()
	s.readOnly = on
	s.mu.Unlock()
}

// ReadOnly reports whether the store refuses edits.
func (s *Store) ReadOnly() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.readOnly
}

// SetEpoch raises the node's replication epoch (it never lowers — a
// node that has seen epoch N must not stamp history with less). New
// and reopened session journals inherit it; promotion calls this with
// the bumped epoch before re-opening writes.
func (s *Store) SetEpoch(e uint64) {
	s.mu.Lock()
	if e > s.epoch {
		s.epoch = e
	}
	s.mu.Unlock()
}

// Epoch returns the node's replication epoch.
func (s *Store) Epoch() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.epoch
}

// SetTenantQuota caps edit-mode acquisitions per tenant (<=0 =
// unlimited). Tenant charges are cumulative over the store's lifetime.
func (s *Store) SetTenantQuota(maxEdits int64) {
	s.mu.Lock()
	s.cfg.MaxTenantEdits = maxEdits
	s.mu.Unlock()
}

// TenantEdits returns the cumulative edit count charged to a tenant.
func (s *Store) TenantEdits(tenant string) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tenantEdits[tenant]
}

func (s *Store) lib() *sim.Library {
	if s.cfg.Lib != nil {
		return s.cfg.Lib
	}
	return sim.Standard()
}

// SetLimits replaces the quota knobs at runtime (flags at startup, the
// load generator mid-run) and applies the new budget immediately.
func (s *Store) SetLimits(maxSessions int, memBudget, maxEdits int64) {
	s.mu.Lock()
	s.cfg.MaxSessions = maxSessions
	s.cfg.MemBudget = memBudget
	s.cfg.MaxEdits = maxEdits
	s.mu.Unlock()
	s.maybeEvict()
}

// Len returns the total session count, resident + evicted.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.sessions)
}

// Counters returns the store-wide accounting snapshot.
func (s *Store) Counters() Counters {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Counters{
		Sessions:      len(s.sessions),
		Resident:      s.resident,
		ResidentBytes: s.residentBytes,
		EvictedTotal:  s.evictedTotal,
		ReloadedTotal: s.reloadedTotal,
	}
}

// sessionBytes is the resident footprint charged against the budget:
// the §7.4 accounting (memo + bitmaps) the session already tracks.
func sessionBytes(sess *incremental.Session) int64 {
	memo, bitmaps := sess.MemoryBytes()
	return memo + bitmaps
}

func metaOf(sess *incremental.Session) Meta {
	return Meta{
		Pairs:   sess.LivePairCount(),
		Rules:   len(sess.M.C.Rules),
		Matches: sess.MatchCount(),
		LastOp:  sess.LastOp.Op,
	}
}

// Admit registers a freshly built session (already materialized; its
// tables are sess.M.C.A/B or explicit a, b). Admission control rejects
// rather than queues: a client holding a 429 can retry, a queued
// create would pin the request goroutine against a budget that may
// never clear.
func (s *Store) Admit(name string, sess *incremental.Session, a, b *table.Table) error {
	return s.AdmitTenant(name, "", sess, a, b)
}

// AdmitTenant is Admit with a tenant attribution: every edit-mode
// acquisition of the session charges the tenant's cumulative quota
// (see Config.MaxTenantEdits) in addition to the session's own.
func (s *Store) AdmitTenant(name, tenant string, sess *incremental.Session, a, b *table.Table) error {
	if s.Durable() {
		if err := ValidName(name); err != nil {
			return err
		}
	}
	bytes := sessionBytes(sess)
	e := &Entry{name: name, tenant: tenant, created: time.Now(), sess: sess, a: a, b: b}
	// Entry lock first (entry → store order), held through store
	// attachment so no acquirer can slip in before the WAL exists.
	e.mu.Lock()
	s.mu.Lock()
	if _, ok := s.sessions[name]; ok {
		s.mu.Unlock()
		e.mu.Unlock()
		return fmt.Errorf("session %q: %w", name, ErrExists)
	}
	if s.cfg.MaxSessions > 0 && len(s.sessions) >= s.cfg.MaxSessions {
		s.mu.Unlock()
		e.mu.Unlock()
		return fmt.Errorf("session %q: %d sessions at the -max-sessions limit: %w",
			name, s.cfg.MaxSessions, ErrTooManySessions)
	}
	if s.cfg.MemBudget > 0 {
		// A durable store can evict others to make room, so only a
		// session larger than the whole budget is hopeless; an ephemeral
		// store cannot evict anything, so the budget is a hard cap.
		limit := s.cfg.MemBudget
		if !s.durable {
			limit -= s.residentBytes
		}
		if bytes > limit {
			s.mu.Unlock()
			e.mu.Unlock()
			return fmt.Errorf("session %q needs %d bytes against a %d-byte budget: %w",
				name, bytes, s.cfg.MemBudget, ErrSessionTooLarge)
		}
	}
	e.resident = true
	e.bytes = bytes
	e.lastTouch = time.Now()
	e.meta = metaOf(sess)
	e.elem = s.lru.PushFront(e)
	s.sessions[name] = e
	s.resident++
	s.residentBytes += bytes
	s.publishGauges()
	s.mu.Unlock()
	s.attachStore(e)
	e.mu.Unlock()
	s.maybeEvict()
	return nil
}

// Acquire locks the named session for one request, transparently
// reloading it from disk if it was evicted. Callers must Release the
// handle exactly once.
func (s *Store) Acquire(name string, mode Mode) (*Handle, error) {
	for {
		s.mu.Lock()
		e, ok := s.sessions[name]
		s.mu.Unlock()
		if !ok {
			return nil, fmt.Errorf("no session %q: %w", name, ErrNotFound)
		}
		if mode == ModeRead {
			e.mu.RLock()
			if e.removed {
				e.mu.RUnlock()
				return nil, fmt.Errorf("no session %q: %w", name, ErrNotFound)
			}
			if e.sess != nil {
				s.touch(e)
				return &Handle{s: s, e: e, write: false}, nil
			}
			e.mu.RUnlock()
			// Evicted: upgrade to the write lock, reload, then loop to
			// re-take the read side (another reloader may win the race —
			// that is fine, the loop re-checks).
			if err := s.reload(e); err != nil {
				return nil, err
			}
			continue
		}
		e.mu.Lock()
		if e.removed {
			e.mu.Unlock()
			return nil, fmt.Errorf("no session %q: %w", name, ErrNotFound)
		}
		if e.sess == nil {
			if err := s.reloadLocked(e); err != nil {
				e.mu.Unlock()
				return nil, err
			}
		}
		if mode == ModeEdit {
			s.mu.Lock()
			if s.readOnly {
				s.mu.Unlock()
				e.mu.Unlock()
				return nil, fmt.Errorf("session %q: %w", name, ErrReadOnly)
			}
			if s.cfg.MaxEdits > 0 && e.edits >= s.cfg.MaxEdits {
				max := s.cfg.MaxEdits
				s.mu.Unlock()
				e.mu.Unlock()
				return nil, fmt.Errorf("session %q: %d edits at the -max-edits quota: %w",
					name, max, ErrEditQuota)
			}
			if s.cfg.MaxTenantEdits > 0 && s.tenantEdits[e.tenant] >= s.cfg.MaxTenantEdits {
				max := s.cfg.MaxTenantEdits
				s.mu.Unlock()
				e.mu.Unlock()
				return nil, fmt.Errorf("session %q: tenant %q at the %d-edit -max-tenant-edits quota: %w",
					name, e.tenant, max, ErrTenantQuota)
			}
			e.edits++
			s.tenantEdits[e.tenant]++
			s.mu.Unlock()
		}
		s.touch(e)
		return &Handle{s: s, e: e, write: true}, nil
	}
}

// touch marks the entry most-recently-used.
func (s *Store) touch(e *Entry) {
	s.mu.Lock()
	e.lastTouch = time.Now()
	if e.elem != nil {
		s.lru.MoveToFront(e.elem)
	}
	s.mu.Unlock()
}

// reload takes the entry's write lock and reloads it if still evicted.
func (s *Store) reload(e *Entry) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.removed {
		return fmt.Errorf("no session %q: %w", e.name, ErrNotFound)
	}
	if e.sess != nil {
		return nil // raced with another reloader; done
	}
	return s.reloadLocked(e)
}

// reloadLocked rebuilds the heap state from the session's disk home:
// snapshot plus journal replay of seq > snapshot.Seq. Caller holds the
// entry's write lock.
func (s *Store) reloadLocked(e *Entry) error {
	st, rec, err := wal.Open(s.dur.FS, s.sessionDir(e.name), s.dur.Policy, s.lib())
	if err != nil {
		return fmt.Errorf("reload session %q: %w", e.name, err)
	}
	st.CompactAt = s.dur.CompactAt
	s.SetEpoch(st.Epoch())
	st.SetEpoch(s.Epoch())
	rec.Session.Reconfigure(s.cfg.Core)
	e.sess, e.a, e.b, e.wst = rec.Session, rec.A, rec.B, st
	// The heap state now equals the disk state exactly (recovery is
	// byte-identical), so the next eviction of an untouched session can
	// skip the snapshot rewrite.
	e.dirty = false
	bytes := sessionBytes(e.sess)
	s.mu.Lock()
	e.resident = true
	e.bytes = bytes
	e.meta = metaOf(e.sess)
	e.reloads++
	s.resident++
	s.residentBytes += bytes
	s.reloadedTotal++
	s.publishGauges()
	s.mu.Unlock()
	return nil
}

// Release returns a handle. Write releases re-account the session's
// bytes and refresh the listing summary; every release gives the
// evictor a chance to enforce the budget.
func (h *Handle) Release() {
	s, e := h.s, h.e
	if h.write {
		var bytes int64
		var meta Meta
		live := e.sess != nil && !e.removed
		if live {
			bytes = sessionBytes(e.sess)
			meta = metaOf(e.sess)
			e.dirty = true
		}
		e.mu.Unlock()
		if live {
			s.mu.Lock()
			if e.resident {
				s.residentBytes += bytes - e.bytes
				e.bytes = bytes
			}
			e.meta = meta
			s.publishGauges()
			s.mu.Unlock()
		}
	} else {
		e.mu.RUnlock()
	}
	s.maybeEvict()
}

// Remove deletes a session in any lifecycle state, destroying its disk
// home. Returns false if the name is unknown.
func (s *Store) Remove(name string) bool {
	s.mu.Lock()
	e, ok := s.sessions[name]
	if !ok {
		s.mu.Unlock()
		return false
	}
	delete(s.sessions, name)
	s.lru.Remove(e.elem)
	e.elem = nil
	if e.resident {
		e.resident = false
		s.resident--
		s.residentBytes -= e.bytes
		e.bytes = 0
	}
	s.publishGauges()
	s.mu.Unlock()
	e.mu.Lock()
	e.removed = true
	if e.wst != nil {
		if err := e.wst.Destroy(); err != nil {
			log.Printf("sessionstore: destroy session %q store: %v", name, err)
		}
		e.wst = nil
	} else if s.durable {
		// Evicted (or degraded partway): the disk home may still exist.
		if err := s.dur.FS.RemoveAll(s.sessionDir(name)); err != nil {
			log.Printf("sessionstore: remove session %q directory: %v", name, err)
		}
	}
	e.sess, e.a, e.b = nil, nil, nil
	e.mu.Unlock()
	return true
}

// List describes every session, resident or evicted, sorted by name.
// It never reloads an evicted session — the summary comes from the
// cached Meta.
func (s *Store) List() []EntryInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]EntryInfo, 0, len(s.sessions))
	for _, e := range s.sessions {
		out = append(out, s.infoLocked(e))
	}
	sortEntryInfos(out)
	return out
}

// Info returns one session's lifecycle summary without touching it:
// no LRU move, no reload, no quota charge. Safe to call while holding
// a handle on the same session (it takes only the store lock).
func (s *Store) Info(name string) (EntryInfo, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.sessions[name]
	if !ok {
		return EntryInfo{}, false
	}
	return s.infoLocked(e), true
}

func (s *Store) infoLocked(e *Entry) EntryInfo {
	state := StateEvicted
	if e.resident {
		state = StateResident
	}
	return EntryInfo{
		Name:          e.name,
		Tenant:        e.tenant,
		State:         state,
		ResidentBytes: e.bytes,
		Created:       e.created,
		LastTouch:     e.lastTouch,
		Evictions:     e.evictions,
		Reloads:       e.reloads,
		Meta:          e.meta,
	}
}

func sortEntryInfos(infos []EntryInfo) {
	for i := 1; i < len(infos); i++ {
		for j := i; j > 0 && infos[j].Name < infos[j-1].Name; j-- {
			infos[j], infos[j-1] = infos[j-1], infos[j]
		}
	}
}

// overBudget reports whether eviction pressure exists.
func (s *Store) overBudget() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.durable && s.cfg.MemBudget > 0 && s.residentBytes > s.cfg.MemBudget
}

// maybeEvict enforces the memory budget: walk the LRU list from the
// cold end, TryLock victims (a busy session is de-facto in use — skip
// it), and evict until under budget or out of candidates. Runs
// synchronously on the releasing/admitting goroutine; eviction I/O is
// done under the victim's lock only, never the store lock.
func (s *Store) maybeEvict() {
	for {
		s.mu.Lock()
		if !s.durable || s.cfg.MemBudget <= 0 || s.residentBytes <= s.cfg.MemBudget {
			s.mu.Unlock()
			return
		}
		var cands []*Entry
		for el := s.lru.Back(); el != nil; el = el.Prev() {
			e := el.Value.(*Entry)
			if e.resident && !e.unevictable {
				cands = append(cands, e)
			}
		}
		s.mu.Unlock()
		progress := false
		for _, e := range cands {
			if !e.mu.TryLock() {
				continue
			}
			if s.evictLocked(e) {
				progress = true
			}
			if !s.overBudget() {
				return
			}
		}
		if !progress {
			return // everything busy or pinned; the next release retries
		}
	}
}

// Evict forces the named session out now, regardless of budget —
// tests and ops tooling. Unlike the evictor it blocks on the entry
// lock. Returns whether the session was evicted.
func (s *Store) Evict(name string) bool {
	s.mu.Lock()
	e, ok := s.sessions[name]
	s.mu.Unlock()
	if !ok {
		return false
	}
	e.mu.Lock()
	return s.evictLocked(e)
}

// evictLocked compacts the session to its disk home and drops the heap
// state. Caller holds the entry's write lock; it is released before
// returning. Physical compaction (persist.Compact) runs when the
// session carries tombstones, so a churned session shrinks on disk
// instead of growing forever.
func (s *Store) evictLocked(e *Entry) bool {
	defer e.mu.Unlock()
	if e.removed || e.sess == nil || e.wst == nil {
		return false
	}
	needRewrite := e.sess.NumDead() > 0 ||
		e.sess.M.C.A.NumDeleted() > 0 || e.sess.M.C.B.NumDeleted() > 0
	if e.dirty || needRewrite {
		var err error
		if needRewrite {
			var cs *incremental.Session
			cs, err = persist.Compact(e.sess, s.lib())
			if err == nil {
				err = e.wst.CompactRewrite(cs, cs.M.C.A, cs.M.C.B)
			}
		} else {
			err = e.wst.Compact(e.sess)
		}
		if err != nil {
			// Pin resident rather than risk losing state we cannot
			// snapshot. The session stays fully usable; it just cannot be
			// evicted again this process.
			s.mu.Lock()
			e.unevictable = true
			s.mu.Unlock()
			log.Printf("sessionstore: session %q pinned resident (evict failed): %v", e.name, err)
			return false
		}
	}
	if err := e.wst.Close(); err != nil {
		log.Printf("sessionstore: close session %q journal at evict: %v", e.name, err)
	}
	e.wst = nil
	e.sess, e.a, e.b = nil, nil, nil
	e.dirty = false
	s.mu.Lock()
	e.resident = false
	s.resident--
	s.residentBytes -= e.bytes
	e.bytes = 0
	e.evictions++
	s.evictedTotal++
	s.publishGauges()
	s.mu.Unlock()
	return true
}
