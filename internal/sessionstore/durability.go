package sessionstore

import (
	"errors"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"rulematch/internal/faultio"
	"rulematch/internal/wal"
)

// Durability configures the store's crash-safe backing: every session
// gets a directory under Dir holding its tables, a checksummed
// snapshot and an edit journal (see internal/wal). Committed edits are
// journaled before the HTTP response is written, and eviction compacts
// into the same snapshot+journal pair, so the disk home is always a
// complete recovery point.
type Durability struct {
	// Dir is the data directory; one subdirectory per session.
	Dir string
	// Policy is the journal fsync policy (always / interval / never).
	Policy wal.SyncPolicy
	// CompactAt is the journal size that triggers compaction;
	// <=0 means wal.DefaultCompactBytes.
	CompactAt int64
	// FS is the filesystem seam; nil means the real one. Tests inject
	// faults here.
	FS faultio.FS
}

// EnableDurability switches the store into durable mode. It creates
// Dir and probes that it is writable; an error means the caller should
// fall back to ephemeral mode (every session in memory only, no
// eviction — the budget degrades to an admission cap).
func (s *Store) EnableDurability(d Durability) error {
	if d.FS == nil {
		d.FS = faultio.OS
	}
	if err := d.FS.MkdirAll(d.Dir, 0o755); err != nil {
		return fmt.Errorf("create datadir: %w", err)
	}
	// Probe writability now, not on the first session create.
	probe := filepath.Join(d.Dir, ".probe")
	f, err := d.FS.OpenFile(probe, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("datadir not writable: %w", err)
	}
	_ = f.Close()
	_ = d.FS.Remove(probe)
	s.mu.Lock()
	s.dur = d
	s.durable = true
	s.mu.Unlock()
	return nil
}

// Durable reports whether the store persists sessions.
func (s *Store) Durable() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.durable
}

// ValidName restricts durable session names to filesystem-safe tokens:
// they become directory names under the datadir.
func ValidName(name string) error {
	if name == "" || len(name) > 128 {
		return fmt.Errorf("session name must be 1-128 characters: %w", ErrBadName)
	}
	for _, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return fmt.Errorf("session name %q: durable sessions allow only letters, digits, '.', '_' and '-': %w",
				name, ErrBadName)
		}
	}
	if name == "." || name == ".." {
		return fmt.Errorf("session name %q is reserved: %w", name, ErrBadName)
	}
	return nil
}

// sessionDir is the on-disk home of one durable session.
func (s *Store) sessionDir(name string) string { return filepath.Join(s.dur.Dir, name) }

// attachStore gives a freshly admitted session its durable store. A
// failure degrades the session to ephemeral (logged, counted, visible
// in /stats) rather than failing the admit: losing durability is
// better than losing the analyst's session. Caller holds the entry's
// write lock.
func (s *Store) attachStore(e *Entry) {
	if !s.Durable() {
		return
	}
	st, err := wal.Create(s.dur.FS, s.sessionDir(e.name), s.dur.Policy, e.sess, e.a, e.b, s.Epoch())
	if err != nil {
		s.degradeLocked(e, fmt.Errorf("create store: %w", err))
		return
	}
	st.CompactAt = s.dur.CompactAt
	e.wst = st
}

// AttachDurable gives an already-admitted session a durable home mid
// flight — the promotion path. A follower mirrors sessions without
// durability; when it is promoted, each caught-up session gets a fresh
// snapshot+journal pair created at its applied sequence under the new
// epoch, seeded with the exact base-table CSV bytes the follower
// bootstrapped from (the snapshot's base lengths refer to those bytes,
// so rewriting the grown in-memory tables instead would corrupt
// recovery). Any stale directory contents from a past life are
// replaced.
func (s *Store) AttachDurable(name string, aCSV, bCSV []byte, seq, epoch uint64) error {
	if !s.Durable() {
		return errors.New("sessionstore: store is not durable")
	}
	if err := ValidName(name); err != nil {
		return err
	}
	s.mu.Lock()
	e, ok := s.sessions[name]
	s.mu.Unlock()
	if !ok {
		return fmt.Errorf("no session %q: %w", name, ErrNotFound)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.removed || e.sess == nil {
		return fmt.Errorf("no session %q: %w", name, ErrNotFound)
	}
	if e.wst != nil {
		_ = e.wst.Close()
		e.wst = nil
	}
	st, err := wal.CreateAt(s.dur.FS, s.sessionDir(name), s.dur.Policy, e.sess, aCSV, bCSV, seq, epoch)
	if err != nil {
		return fmt.Errorf("attach durable store to session %q: %w", name, err)
	}
	st.CompactAt = s.dur.CompactAt
	e.wst = st
	e.persistErr = ""
	e.dirty = false
	s.mu.Lock()
	e.unevictable = false
	s.mu.Unlock()
	return nil
}

// degradeLocked flips a session to ephemeral mode after a persistence
// failure. Ephemeral sessions have nowhere to evict to, so they are
// pinned resident. Caller holds the entry's write lock.
func (s *Store) degradeLocked(e *Entry, err error) {
	if e.wst != nil {
		_ = e.wst.Close()
		e.wst = nil
	}
	e.persistErr = err.Error()
	s.mu.Lock()
	e.unevictable = true
	s.mu.Unlock()
	ephemeralSessions.Add(1)
	log.Printf("sessionstore: session %q degraded to ephemeral: %v", e.name, err)
}

// RecoverAll scans the datadir and re-admits every session found
// there: tables from CSV, state from the last good snapshot, then the
// journal suffix replayed (a torn tail is truncated). A directory that
// fails to recover is logged and left on disk untouched for manual
// inspection; it does not block the others. Recovered sessions bypass
// MaxSessions (they were admitted in a previous life); the memory
// budget applies immediately, so a restart under a smaller budget
// evicts the cold tail right away. Returns the number recovered.
func (s *Store) RecoverAll() (int, error) {
	if !s.Durable() {
		return 0, nil
	}
	entries, err := os.ReadDir(s.dur.Dir)
	if err != nil {
		return 0, fmt.Errorf("scan datadir: %w", err)
	}
	n := 0
	for _, de := range entries {
		if !de.IsDir() {
			continue
		}
		name := de.Name()
		dir := s.sessionDir(name)
		if _, err := os.Stat(filepath.Join(dir, wal.SnapshotFile)); err != nil {
			continue // not a session directory
		}
		st, rec, err := wal.Open(s.dur.FS, dir, s.dur.Policy, s.lib())
		if err != nil {
			log.Printf("sessionstore: session %q not recovered (left on disk): %v", name, err)
			continue
		}
		st.CompactAt = s.dur.CompactAt
		// A recovered session raises the node's epoch to its own (this
		// node already stamped history with it in a past life) and then
		// inherits the node's — whichever is higher.
		s.SetEpoch(st.Epoch())
		st.SetEpoch(s.Epoch())
		rec.Session.Reconfigure(s.cfg.Core)
		e := &Entry{name: name, created: time.Now(), sess: rec.Session, a: rec.A, b: rec.B, wst: st}
		bytes := sessionBytes(e.sess)
		s.mu.Lock()
		if _, dup := s.sessions[name]; dup {
			s.mu.Unlock()
			_ = st.Close()
			log.Printf("sessionstore: session %q not recovered: %v", name, ErrExists)
			continue
		}
		e.resident = true
		e.bytes = bytes
		e.lastTouch = time.Now()
		e.meta = metaOf(e.sess)
		e.elem = s.lru.PushBack(e) // recovered cold: oldest in LRU order
		s.sessions[name] = e
		s.resident++
		s.residentBytes += bytes
		s.publishGauges()
		s.mu.Unlock()
		recoveredSessions.Add(1)
		n++
		torn := ""
		if rec.Torn {
			torn = ", torn journal tail truncated"
		}
		log.Printf("sessionstore: recovered session %q (seq %d, %d journal records replayed%s)",
			name, st.Seq(), rec.Replayed, torn)
	}
	s.maybeEvict()
	return n, nil
}

// CloseAll syncs and closes every resident session's journal. Called
// after the HTTP server has drained, so no requests are in flight.
func (s *Store) CloseAll() {
	s.mu.Lock()
	all := make([]*Entry, 0, len(s.sessions))
	for _, e := range s.sessions {
		all = append(all, e)
	}
	s.mu.Unlock()
	for _, e := range all {
		e.mu.Lock()
		if e.wst != nil {
			if err := e.wst.Close(); err != nil {
				log.Printf("sessionstore: close session %q journal: %v", e.name, err)
			}
			e.wst = nil
		}
		e.mu.Unlock()
	}
}

// errorsIsAny reports whether err matches any target — the helper the
// HTTP layer uses to map store errors to 429s.
func errorsIsAny(err error, targets ...error) bool {
	for _, t := range targets {
		if errors.Is(err, t) {
			return true
		}
	}
	return false
}

// IsQuota reports whether err is an admission/quota rejection (maps to
// 429 Too Many Requests).
func IsQuota(err error) bool {
	return errorsIsAny(err, ErrTooManySessions, ErrSessionTooLarge, ErrEditQuota, ErrTenantQuota)
}

// IsReadOnly reports whether err is a read-only rejection (maps to 421
// Misdirected Request: the write belongs on the primary).
func IsReadOnly(err error) bool { return errors.Is(err, ErrReadOnly) }
