// Package replica implements the follower side of WAL-shipped
// replication: a read replica bootstraps every session from the
// primary's snapshot endpoint, then tails the primary's edit journal
// over HTTP and replays each record into its own session store.
//
// The protocol is pull-based and resumable. A follower holds one
// cursor per session — the last journal sequence it has applied — and
// asks the primary for everything after it
// (GET /v1/sessions/{name}/wal?from=<cursor>). The primary answers
// with the journal's own frame encoding (length, CRC-32C, JSON
// payload), so the bytes a follower applies are bit-for-bit what the
// primary's crash recovery would replay. When compaction rotates the
// journal past a follower's cursor the primary answers 410 wal_rotated
// and the follower re-bootstraps from the latest snapshot — the same
// snapshot-then-suffix contract recovery uses locally.
//
// Failure handling is total: connection refused (primary restarting),
// torn responses, deleted sessions and rotated journals all converge
// back to a replicating state without operator intervention. A
// follower killed at any point — including mid-apply — restarts from
// bootstrap and reaches the same state, because session state is
// fully determined by (snapshot, applied WAL prefix).
package replica

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"hash/fnv"
	"io"
	"log"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"time"

	"rulematch/internal/core"
	"rulematch/internal/persist"
	"rulematch/internal/sessionstore"
	"rulematch/internal/sim"
	"rulematch/internal/table"
	"rulematch/internal/wal"
)

// Sentinel conditions a poll can surface.
var (
	// errRotated: the primary compacted past our cursor; re-bootstrap.
	errRotated = errors.New("replica: journal rotated past cursor")
	// errGone: the session no longer exists on the primary.
	errGone = errors.New("replica: session deleted on primary")
	// errStale: the peer is serving an older epoch than we have seen —
	// a deposed primary that came back. Its history must never be
	// applied (fencing); back off and wait for it to be re-pointed or
	// retired, but do NOT re-bootstrap from it: that would regress the
	// follower onto the stale fork.
	errStale = errors.New("replica: primary serves a stale epoch")
)

// Config wires a Manager to its primary and its local store.
type Config struct {
	// PrimaryURL is the primary's base URL (no trailing slash).
	PrimaryURL string
	// Store is the local session store the follower replays into. The
	// server serving reads must share it, and it should be read-only
	// (server.SetPrimary flips that) so analysts cannot edit a replica.
	Store *sessionstore.Store
	// Core is the engine configuration for replayed sessions; use the
	// same engine flags as the primary.
	Core core.Config
	// Lib resolves similarity functions when loading snapshots; nil
	// means sim.Standard().
	Lib *sim.Library
	// Client is the HTTP client; nil means a default with a timeout
	// comfortably above WalWait.
	Client *http.Client
	// SyncInterval is how often the manager re-lists the primary's
	// sessions to pick up creates and deletes; <=0 means 2s.
	SyncInterval time.Duration
	// WalWait is the long-poll budget sent as ?wait= in milliseconds;
	// <=0 means 1000.
	WalWait int
	// BackoffMax caps the retry backoff after errors; <=0 means 2s.
	BackoffMax time.Duration
	// Seed perturbs the per-follower jitter RNG. Each follower derives
	// its stream from Seed and its session name, so a fleet that loses
	// the primary retries staggered instead of in lockstep, while any
	// single configuration stays reproducible. 0 is a valid seed.
	Seed int64
}

// SessionStatus is one session's replication posture.
type SessionStatus struct {
	Name         string
	AppliedSeq   uint64
	PrimarySeq   uint64
	Lag          uint64
	Epoch        uint64
	Bootstraps   uint64
	Rebootstraps uint64
	StaleRefused uint64
	LastErr      string
}

// Manager runs one follower goroutine per replicated session plus a
// sync loop that mirrors the primary's session list. It implements the
// server's ReplicaSource interface (AppliedSeq / PrimarySeq) so /stats
// on the replica reports lag.
type Manager struct {
	cfg    Config
	client *http.Client
	lib    *sim.Library

	mu        sync.Mutex
	followers map[string]*follower
	promoted  bool

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// Process-wide replication counters; shared by all Managers in the
// process (expvar names are global, mirroring the store's pattern).
var (
	metricsOnce      sync.Once
	mBootstraps      *expvar.Int
	mRebootstraps    *expvar.Int
	mAppliedRecords  *expvar.Int
	mPollErrors      *expvar.Int
	mSessionsDropped *expvar.Int
	mStaleRefusals   *expvar.Int
)

func initMetrics() {
	metricsOnce.Do(func() {
		mBootstraps = expvar.NewInt("emreplica_bootstraps")
		mRebootstraps = expvar.NewInt("emreplica_rebootstraps")
		mAppliedRecords = expvar.NewInt("emreplica_applied_records")
		mPollErrors = expvar.NewInt("emreplica_poll_errors")
		mSessionsDropped = expvar.NewInt("emreplica_sessions_dropped")
		mStaleRefusals = expvar.NewInt("emreplica_stale_refusals")
	})
}

// New builds a Manager; call Start to begin replicating.
func New(cfg Config) *Manager {
	initMetrics()
	if cfg.SyncInterval <= 0 {
		cfg.SyncInterval = 2 * time.Second
	}
	if cfg.WalWait <= 0 {
		cfg.WalWait = 1000
	}
	if cfg.BackoffMax <= 0 {
		cfg.BackoffMax = 2 * time.Second
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{Timeout: time.Duration(cfg.WalWait)*time.Millisecond + 30*time.Second}
	}
	lib := cfg.Lib
	if lib == nil {
		lib = sim.Standard()
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &Manager{
		cfg: cfg, client: client, lib: lib,
		followers: map[string]*follower{},
		ctx:       ctx, cancel: cancel,
	}
}

// Start launches the session-list sync loop. Followers spawn and die
// as the primary's session list changes.
func (m *Manager) Start() {
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		for {
			if err := m.Sync(); err != nil {
				log.Printf("replica: session sync: %v", err)
			}
			select {
			case <-m.ctx.Done():
				return
			case <-time.After(m.cfg.SyncInterval):
			}
		}
	}()
}

// Stop cancels every follower and waits for them to exit.
func (m *Manager) Stop() {
	m.cancel()
	m.wg.Wait()
}

// Sync mirrors the primary's session list once: new sessions gain a
// follower, deleted sessions lose theirs (and their local copy).
// Exported so tests and callers can force a sync without waiting out
// the interval.
func (m *Manager) Sync() error {
	names, err := m.listPrimary()
	if err != nil {
		return err
	}
	want := map[string]bool{}
	for _, n := range names {
		want[n] = true
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, n := range names {
		if _, ok := m.followers[n]; !ok {
			f := &follower{name: n, m: m, rng: rand.New(rand.NewSource(jitterSeed(m.cfg.Seed, n)))}
			fctx, fcancel := context.WithCancel(m.ctx)
			f.cancel = fcancel
			m.followers[n] = f
			m.wg.Add(1)
			go func() {
				defer m.wg.Done()
				f.run(fctx)
			}()
		}
	}
	for n, f := range m.followers {
		if !want[n] {
			f.cancel()
			delete(m.followers, n)
			m.cfg.Store.Remove(n)
			mSessionsDropped.Add(1)
		}
	}
	return nil
}

// listPrimary fetches the primary's session names.
func (m *Manager) listPrimary() ([]string, error) {
	var out struct {
		Sessions []struct {
			Name string `json:"name"`
		} `json:"sessions"`
	}
	if err := m.getJSON(m.ctx, "/v1/sessions", &out); err != nil {
		return nil, err
	}
	names := make([]string, 0, len(out.Sessions))
	for _, s := range out.Sessions {
		names = append(names, s.Name)
	}
	return names, nil
}

// AppliedSeq implements the server's ReplicaSource: the last sequence
// replayed into the named session's local state.
func (m *Manager) AppliedSeq(name string) (uint64, bool) {
	m.mu.Lock()
	f, ok := m.followers[name]
	m.mu.Unlock()
	if !ok {
		return 0, false
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.applied, f.ready
}

// PrimarySeq implements the server's ReplicaSource: the primary's last
// known journal sequence for the named session.
func (m *Manager) PrimarySeq(name string) (uint64, bool) {
	m.mu.Lock()
	f, ok := m.followers[name]
	m.mu.Unlock()
	if !ok {
		return 0, false
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.primarySeq, f.ready
}

// Status reports every follower, sorted by name.
func (m *Manager) Status() []SessionStatus {
	m.mu.Lock()
	fs := make([]*follower, 0, len(m.followers))
	for _, f := range m.followers {
		fs = append(fs, f)
	}
	m.mu.Unlock()
	out := make([]SessionStatus, 0, len(fs))
	for _, f := range fs {
		f.mu.Lock()
		st := SessionStatus{
			Name: f.name, AppliedSeq: f.applied, PrimarySeq: f.primarySeq, Epoch: f.epoch,
			Bootstraps: f.bootstraps, Rebootstraps: f.rebootstraps,
			StaleRefused: f.staleRefused, LastErr: f.lastErr,
		}
		if f.primarySeq > f.applied {
			st.Lag = f.primarySeq - f.applied
		}
		f.mu.Unlock()
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// getJSON GETs a primary path and decodes the JSON body, folding the
// error envelope into an error.
func (m *Manager) getJSON(ctx context.Context, path string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, m.cfg.PrimaryURL+path, nil)
	if err != nil {
		return err
	}
	resp, err := m.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	switch resp.StatusCode {
	case http.StatusOK:
		return json.Unmarshal(body, out)
	case http.StatusNotFound:
		return fmt.Errorf("%s: %w", path, errGone)
	case http.StatusGone:
		return fmt.Errorf("%s: %w", path, errRotated)
	default:
		return fmt.Errorf("GET %s: status %d: %s", path, resp.StatusCode, envelopeMessage(body))
	}
}

// envelopeMessage extracts the error envelope's message for logs.
func envelopeMessage(body []byte) string {
	var e struct {
		Error struct {
			Code    string `json:"code"`
			Message string `json:"message"`
		} `json:"error"`
	}
	if json.Unmarshal(body, &e) == nil && e.Error.Code != "" {
		return e.Error.Code + ": " + e.Error.Message
	}
	return string(body)
}

// follower replicates one session. All fields behind mu except name
// and m; ready flips false whenever the state must be rebuilt from a
// fresh bootstrap.
type follower struct {
	name   string
	m      *Manager
	cancel context.CancelFunc
	// rng drives the backoff jitter; seeded per follower (see
	// jitterSeed) and touched only by the follower's own goroutine.
	rng *rand.Rand

	mu           sync.Mutex
	ready        bool
	applied      uint64
	primarySeq   uint64
	epoch        uint64
	bootstraps   uint64
	rebootstraps uint64
	staleRefused uint64
	lastErr      string
	// tenant plus the raw base-table CSV bytes from the last bootstrap:
	// retained so promotion can seed a durable store whose snapshot base
	// lengths refer to exactly these bytes.
	tenant string
	baseA  []byte
	baseB  []byte
}

// jitterSeed derives a follower's RNG seed from the configured seed and
// its session name, so distinct followers jitter differently while a
// fixed configuration replays identically.
func jitterSeed(seed int64, name string) int64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(name))
	return seed ^ int64(h.Sum64())
}

// run is the follower's life: bootstrap, then tail the WAL until the
// context dies. Every error path sleeps with backoff and converges
// back to replicating.
func (f *follower) run(ctx context.Context) {
	const initialBackoff = 50 * time.Millisecond
	backoff := initialBackoff
	for {
		if ctx.Err() != nil {
			return
		}
		f.mu.Lock()
		ready := f.ready
		f.mu.Unlock()
		if !ready {
			if err := f.bootstrap(ctx); err != nil {
				if errors.Is(err, errGone) {
					return // the sync loop reaps the follower
				}
				if errors.Is(err, errStale) {
					f.mu.Lock()
					f.staleRefused++
					f.mu.Unlock()
					mStaleRefusals.Add(1)
				}
				f.noteErr(err)
				backoff = f.sleep(ctx, backoff)
				continue
			}
			backoff = initialBackoff
		}
		err := f.pollOnce(ctx)
		switch {
		case err == nil:
			backoff = initialBackoff // the long poll paces the loop
		case errors.Is(err, errRotated):
			// Compaction outran us: rebuild from the newest snapshot.
			f.mu.Lock()
			f.ready = false
			f.rebootstraps++
			f.mu.Unlock()
			mRebootstraps.Add(1)
		case errors.Is(err, errStale):
			// Fencing: the peer is a deposed primary serving an older
			// epoch. Refuse its history and back off — but keep our state
			// (no re-bootstrap: that would regress onto the stale fork).
			f.mu.Lock()
			f.staleRefused++
			f.mu.Unlock()
			mStaleRefusals.Add(1)
			f.noteErr(err)
			backoff = f.sleep(ctx, backoff)
		case errors.Is(err, errGone):
			return
		case ctx.Err() != nil:
			return
		default:
			f.noteErr(err)
			backoff = f.sleep(ctx, backoff)
		}
	}
}

func (f *follower) noteErr(err error) {
	mPollErrors.Add(1)
	f.mu.Lock()
	f.lastErr = err.Error()
	f.mu.Unlock()
}

// sleep waits out the current backoff plus up to 50% seeded jitter (or
// the context) and returns the next backoff, doubled up to the cap. The
// jitter staggers a fleet of followers that all lost the primary at the
// same instant — without it they would hammer the recovering node in
// lockstep; the seeded per-follower RNG keeps each run reproducible.
func (f *follower) sleep(ctx context.Context, d time.Duration) time.Duration {
	wait := d + time.Duration(f.rng.Int63n(int64(d)/2+1))
	select {
	case <-ctx.Done():
	case <-time.After(wait):
	}
	if d *= 2; d > f.m.cfg.BackoffMax {
		d = f.m.cfg.BackoffMax
	}
	return d
}

// bootstrap fetches the primary's base tables and snapshot, loads them
// into a fresh session and (re)admits it locally. The snapshot's
// sequence becomes the WAL cursor.
func (f *follower) bootstrap(ctx context.Context) error {
	var bs struct {
		Name     string `json:"name"`
		Tenant   string `json:"tenant"`
		Seq      uint64 `json:"seq"`
		Epoch    uint64 `json:"epoch"`
		TableA   []byte `json:"tableA"`
		TableB   []byte `json:"tableB"`
		Snapshot []byte `json:"snapshot"`
	}
	if err := f.m.getJSON(ctx, "/v1/sessions/"+f.name+"/bootstrap", &bs); err != nil {
		return err
	}
	f.mu.Lock()
	stale := bs.Epoch < f.epoch
	f.mu.Unlock()
	if stale {
		return fmt.Errorf("bootstrap %s: snapshot epoch %d behind ours: %w", f.name, bs.Epoch, errStale)
	}
	a, err := table.ReadCSV(bytes.NewReader(bs.TableA), "A")
	if err != nil {
		return fmt.Errorf("bootstrap %s: tableA: %w", f.name, err)
	}
	b, err := table.ReadCSV(bytes.NewReader(bs.TableB), "B")
	if err != nil {
		return fmt.Errorf("bootstrap %s: tableB: %w", f.name, err)
	}
	sess, err := persist.Load(bytes.NewReader(bs.Snapshot), f.m.lib, a, b)
	if err != nil {
		return fmt.Errorf("bootstrap %s: snapshot: %w", f.name, err)
	}
	sess.Reconfigure(f.m.cfg.Core)
	// Re-bootstrap replaces any previous copy wholesale.
	f.m.cfg.Store.Remove(f.name)
	if err := f.m.cfg.Store.AdmitTenant(f.name, bs.Tenant, sess, sess.M.C.A, sess.M.C.B); err != nil {
		return fmt.Errorf("bootstrap %s: admit: %w", f.name, err)
	}
	f.mu.Lock()
	f.applied = bs.Seq
	if bs.Seq > f.primarySeq {
		f.primarySeq = bs.Seq
	}
	if bs.Epoch > f.epoch {
		f.epoch = bs.Epoch
	}
	f.tenant = bs.Tenant
	f.baseA, f.baseB = bs.TableA, bs.TableB
	f.ready = true
	f.bootstraps++
	f.lastErr = ""
	f.mu.Unlock()
	mBootstraps.Add(1)
	return nil
}

// pollOnce asks the primary for the WAL suffix after our cursor and
// applies it. An empty response (caught up; the primary long-polled
// for us) is success.
func (f *follower) pollOnce(ctx context.Context) error {
	f.mu.Lock()
	from := f.applied
	f.mu.Unlock()
	url := fmt.Sprintf("%s/v1/sessions/%s/wal?from=%d&wait=%d", f.m.cfg.PrimaryURL, f.name, from, f.m.cfg.WalWait)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := f.m.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusNotFound:
		return errGone
	case http.StatusGone:
		return errRotated
	default:
		return fmt.Errorf("wal poll %s: status %d: %s", f.name, resp.StatusCode, envelopeMessage(body))
	}
	if h := resp.Header.Get("Em-Epoch"); h != "" {
		ep := headerSeq(h)
		f.mu.Lock()
		cur := f.epoch
		f.mu.Unlock()
		if ep < cur {
			return fmt.Errorf("wal poll %s: primary at epoch %d, we have seen %d: %w", f.name, ep, cur, errStale)
		}
		if ep > cur {
			// A promotion happened upstream: rebuild from the new
			// primary's snapshot rather than splicing histories.
			return fmt.Errorf("%w: primary advanced to epoch %d", errRotated, ep)
		}
	}
	recs, err := wal.DecodeFrames(body)
	if err != nil {
		// A garbled stream cannot be resumed from this cursor with
		// confidence; rebuild from the snapshot.
		return fmt.Errorf("%w: %v", errRotated, err)
	}
	if len(recs) > 0 {
		if err := f.apply(recs); err != nil {
			return err
		}
	}
	f.mu.Lock()
	if seq := headerSeq(resp.Header.Get("Em-Seq")); seq > f.primarySeq {
		f.primarySeq = seq
	}
	f.mu.Unlock()
	return nil
}

// apply replays a batch of records under the session's write lock,
// through the quota-free apply mode that works on a read-only store.
// The cursor advances per record, so a crash mid-batch resumes at the
// first unapplied record.
func (f *follower) apply(recs []wal.Record) error {
	h, err := f.m.cfg.Store.Acquire(f.name, sessionstore.ModeApply)
	if err != nil {
		// Locally missing (evicted store restart?) — rebuild.
		return fmt.Errorf("%w: local acquire: %v", errRotated, err)
	}
	defer h.Release()
	for _, rec := range recs {
		f.mu.Lock()
		expect := f.applied + 1
		epoch := f.epoch
		f.mu.Unlock()
		if rec.Seq < expect {
			continue // duplicate delivery after a retry
		}
		if rec.Seq > expect {
			return fmt.Errorf("%w: stream jumps from %d to %d", errRotated, expect-1, rec.Seq)
		}
		if rec.Epoch < epoch {
			// Fencing at the record level: a deposed primary's journal
			// suffix (written under the old epoch after the split) must
			// never reach our state.
			return fmt.Errorf("record %d carries epoch %d, we have seen %d: %w", rec.Seq, rec.Epoch, epoch, errStale)
		}
		if err := wal.Apply(h.Session(), rec); err != nil {
			// The state and the stream disagree; a fresh snapshot is the
			// only safe recovery.
			return fmt.Errorf("%w: apply record %d: %v", errRotated, rec.Seq, err)
		}
		f.mu.Lock()
		f.applied = rec.Seq
		if rec.Epoch > f.epoch {
			f.epoch = rec.Epoch
		}
		f.mu.Unlock()
		mAppliedRecords.Add(1)
	}
	return nil
}

// headerSeq parses an Em-Seq header; 0 when absent or malformed.
func headerSeq(s string) uint64 {
	var v uint64
	for _, c := range s {
		if c < '0' || c > '9' {
			return 0
		}
		v = v*10 + uint64(c-'0')
	}
	return v
}
