package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"rulematch/internal/chaos"
	"rulematch/internal/core"
	"rulematch/internal/replica"
	"rulematch/internal/server"
	"rulematch/internal/wal"
)

// FailoverConfig sizes the failover experiment. Zero values pick
// defaults small enough for CI smoke runs.
type FailoverConfig struct {
	Edits   int // acked write storm before the crash (default 40)
	Records int // records per table side (default 60)
}

func (c *FailoverConfig) defaults() {
	if c.Edits == 0 {
		c.Edits = 40
	}
	if c.Records == 0 {
		c.Records = 60
	}
	if c.Edits < 10 {
		c.Edits = 10
	}
}

// startPromotable is startReplica with the failover wiring emserve
// adds: a chaos transport on the replication link and a promoter that
// re-homes sessions into dataDir under the bumped epoch.
func startPromotable(ecfg core.Config, primary, dataDir string, ct *chaos.Transport) (*replicaNode, error) {
	srv := server.New(ecfg)
	srv.SetPrimary(primary)
	mgr := replica.New(replica.Config{
		PrimaryURL:   primary,
		Store:        srv.Store(),
		Core:         ecfg,
		SyncInterval: 20 * time.Millisecond,
		WalWait:      200,
		BackoffMax:   200 * time.Millisecond,
		Client:       &http.Client{Transport: ct, Timeout: 30 * time.Second},
	})
	srv.SetReplicaSource(mgr)
	dur := server.Durability{Dir: dataDir, Policy: wal.SyncPolicy{Mode: wal.SyncNever}}
	srv.SetPromoter(func() (server.PromoteOutcome, error) {
		res, err := mgr.Promote(&dur)
		if err != nil {
			return server.PromoteOutcome{}, err
		}
		out := server.PromoteOutcome{Epoch: res.Epoch}
		for _, ps := range res.Sessions {
			out.Sessions = append(out.Sessions, server.PromotedSessionInfo{Name: ps.Name, AppliedSeq: ps.AppliedSeq})
		}
		return out, nil
	})
	mgr.Start()
	ln, err := server.Listen("127.0.0.1:0")
	if err != nil {
		mgr.Stop()
		return nil, err
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)
	return &replicaNode{
		base: "http://" + ln.Addr().String(),
		mgr:  mgr,
		srv:  srv,
		stop: func() { hs.Close(); mgr.Stop() },
	}, nil
}

// Failover measures the crash-promote path end to end: a durable
// primary is killed mid write storm with the follower partitioned five
// acked writes behind, the follower is promoted over HTTP under a
// fenced epoch, the client replays its acked suffix, and a fresh
// follower re-points at the new primary. The headline numbers are the
// promotion cost and the kill-to-first-acked-write blackout; the
// correctness close is byte-identity against an uncrashed oracle fed
// the same logical edits — no acked write lost.
func Failover(cfg FailoverConfig) (*Table, error) {
	cfg.defaults()
	oldDir, err := os.MkdirTemp("", "emfailover-old")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(oldDir)
	promDir, err := os.MkdirTemp("", "emfailover-new")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(promDir)

	ecfg := core.Config{Workers: 1} // emserve's default configuration
	prim := server.New(ecfg)
	if err := prim.EnableDurability(server.Durability{
		Dir: oldDir, Policy: wal.SyncPolicy{Mode: wal.SyncNever},
	}); err != nil {
		return nil, err
	}
	ln, err := server.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: prim.Handler()}
	go hs.Serve(ln)
	killed := false
	defer func() {
		if !killed {
			hs.Close()
		}
	}()
	base := "http://" + ln.Addr().String()
	client := &http.Client{}

	const session = "fo"
	rng := rand.New(rand.NewSource(7200))
	tableA, tableB := serveCSV(rng, "a", cfg.Records), serveCSV(rng, "b", cfg.Records)
	create := func(url string) error {
		req, err := json.Marshal(map[string]any{
			"name": session, "tableA": tableA, "tableB": tableB,
			"rules": serveRules, "block": "city",
		})
		if err != nil {
			return err
		}
		resp, err := client.Post(url+"/v1/sessions", "application/json", bytes.NewReader(req))
		if err != nil {
			return err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			return fmt.Errorf("create: status %d", resp.StatusCode)
		}
		return nil
	}
	if err := create(base); err != nil {
		return nil, err
	}

	// ackEdit posts one edit, optionally threading the epoch a client
	// that saw the promotion would, and returns the acked Em-Seq.
	ackEdit := func(url, body string, epoch uint64) (uint64, error) {
		req, err := http.NewRequest(http.MethodPost, url+"/v1/sessions/"+session+"/edits", strings.NewReader(body))
		if err != nil {
			return 0, err
		}
		if epoch > 0 {
			req.Header.Set("Em-Epoch", strconv.FormatUint(epoch, 10))
		}
		resp, err := client.Do(req)
		if err != nil {
			return 0, err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return 0, fmt.Errorf("edit: status %d", resp.StatusCode)
		}
		return strconv.ParseUint(resp.Header.Get("Em-Seq"), 10, 64)
	}
	editBody := func(i int) string {
		return fmt.Sprintf(`{"op":"set_threshold","rule":1,"pred":0,"threshold":%.3f}`, 0.500+0.001*float64(i%400))
	}

	lat := &latencies{byOp: map[string][]time.Duration{}}
	ct := chaos.New(nil, 7)
	bootStart := time.Now()
	node, err := startPromotable(ecfg, base, promDir, ct)
	if err != nil {
		return nil, err
	}
	defer node.stop()
	for {
		if _, ok := node.mgr.AppliedSeq(session); ok {
			break
		}
		if time.Since(bootStart) > 30*time.Second {
			return nil, fmt.Errorf("follower never bootstrapped")
		}
		time.Sleep(time.Millisecond)
	}
	lat.add("bootstrap (snapshot+tables)", time.Since(bootStart))

	// The storm. Five acked writes before the kill the follower is
	// partitioned away from — the suffix a real client must replay.
	severAt := cfg.Edits - 5
	var acked []string
	for i := 0; i < cfg.Edits; i++ {
		body := editBody(i)
		start := time.Now()
		seq, err := ackEdit(base, body, 0)
		if err != nil {
			return nil, fmt.Errorf("edit %d: %w", i, err)
		}
		if seq != uint64(i+1) {
			return nil, fmt.Errorf("edit %d acked seq %d", i, seq)
		}
		lat.add("edit ack (primary)", time.Since(start))
		acked = append(acked, body)
		if len(acked) == severAt {
			for {
				if got, ok := node.mgr.AppliedSeq(session); ok && got >= uint64(severAt) {
					break
				}
				time.Sleep(time.Millisecond)
			}
			ct.SetSevered(true)
			time.Sleep(300 * time.Millisecond) // outlive in-flight polls
		}
	}

	// Kill -9: the primary's listener dies with journals unsynced.
	tKill := time.Now()
	hs.Close()
	killed = true

	// Promote the partitioned follower over HTTP.
	tProm := time.Now()
	resp, err := client.Post(node.base+"/v1/promote", "application/json", nil)
	if err != nil {
		return nil, err
	}
	promBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("promote: status %d: %s", resp.StatusCode, promBody)
	}
	lat.add("promote (drain+fence+re-home)", time.Since(tProm))
	var prom struct {
		Epoch    uint64 `json:"epoch"`
		Sessions []struct {
			Name       string `json:"name"`
			AppliedSeq uint64 `json:"appliedSeq"`
		} `json:"sessions"`
	}
	if err := json.Unmarshal(promBody, &prom); err != nil {
		return nil, err
	}
	if len(prom.Sessions) != 1 {
		return nil, fmt.Errorf("promotion re-homed %d sessions", len(prom.Sessions))
	}
	appliedAt := prom.Sessions[0].AppliedSeq
	if appliedAt >= uint64(cfg.Edits) {
		return nil, fmt.Errorf("partition failed: follower applied %d of %d", appliedAt, cfg.Edits)
	}

	// Client replay of the acked suffix; the first ack ends the
	// write blackout that started at the kill.
	first := true
	for i := appliedAt; i < uint64(len(acked)); i++ {
		start := time.Now()
		seq, err := ackEdit(node.base, acked[i], prom.Epoch)
		if err != nil {
			return nil, fmt.Errorf("replay seq %d: %w", i+1, err)
		}
		if seq != i+1 {
			return nil, fmt.Errorf("replay resequenced: acked %d, got %d", i+1, seq)
		}
		if first {
			lat.add("blackout (kill -> first write acked)", time.Since(tKill))
			first = false
		}
		lat.add("replayed acked write", time.Since(start))
	}
	// Fresh post-failover traffic.
	var fresh []string
	for i := 0; i < 10; i++ {
		body := editBody(1000 + i)
		start := time.Now()
		if _, err := ackEdit(node.base, body, 0); err != nil {
			return nil, fmt.Errorf("post-failover edit %d: %w", i, err)
		}
		lat.add("post-failover edit ack", time.Since(start))
		fresh = append(fresh, body)
	}
	finalSeq := uint64(len(acked) + len(fresh))

	// A fresh follower re-points at the new primary and converges.
	tRepoint := time.Now()
	n2, err := startReplica(ecfg, node.base)
	if err != nil {
		return nil, err
	}
	defer n2.stop()
	for {
		if got, ok := n2.mgr.AppliedSeq(session); ok && got >= finalSeq {
			break
		}
		if time.Since(tRepoint) > 30*time.Second {
			return nil, fmt.Errorf("re-pointed follower never converged")
		}
		time.Sleep(time.Millisecond)
	}
	lat.add("follower re-point + converge", time.Since(tRepoint))

	// Differential close: an uncrashed oracle fed the same logical
	// edits must match the promoted primary and its follower byte for
	// byte — no acked write lost, no divergence.
	oracleDir, err := os.MkdirTemp("", "emfailover-oracle")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(oracleDir)
	oracle := server.New(ecfg)
	if err := oracle.EnableDurability(server.Durability{
		Dir: oracleDir, Policy: wal.SyncPolicy{Mode: wal.SyncNever},
	}); err != nil {
		return nil, err
	}
	oln, err := server.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ohs := &http.Server{Handler: oracle.Handler()}
	go ohs.Serve(oln)
	defer ohs.Close()
	obase := "http://" + oln.Addr().String()
	if err := create(obase); err != nil {
		return nil, err
	}
	for i, body := range append(append([]string{}, acked...), fresh...) {
		if _, err := ackEdit(obase, body, 0); err != nil {
			return nil, fmt.Errorf("oracle edit %d: %w", i, err)
		}
	}
	snap := func(url string) ([]byte, error) {
		resp, err := client.Get(url + "/v1/sessions/" + session + "/snapshot")
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("snapshot: status %d", resp.StatusCode)
		}
		return io.ReadAll(resp.Body)
	}
	want, err := snap(obase)
	if err != nil {
		return nil, err
	}
	for _, url := range []string{node.base, n2.base} {
		got, err := snap(url)
		if err != nil {
			return nil, err
		}
		if !bytes.Equal(want, got) {
			return nil, fmt.Errorf("state at %s differs from the uncrashed oracle (%d vs %d bytes)", url, len(got), len(want))
		}
	}

	out := &Table{
		Title: fmt.Sprintf("Failover: primary killed after %d acked edits, follower promoted %d behind",
			cfg.Edits, uint64(len(acked))-appliedAt),
		Header: []string{"Path", "n", "p50 ms", "p99 ms", "max ms"},
	}
	ops := make([]string, 0, len(lat.byOp))
	for op := range lat.byOp {
		ops = append(ops, op)
	}
	sort.Strings(ops)
	for _, op := range ops {
		ds := lat.byOp[op]
		sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
		out.AddRow(op, fmt.Sprint(len(ds)),
			ms(quantile(ds, 0.50)), ms(quantile(ds, 0.99)), ms(ds[len(ds)-1]))
	}
	out.Notes = append(out.Notes,
		fmt.Sprintf("promoted at epoch %d from applied seq %d; client replayed %d acked writes",
			prom.Epoch, appliedAt, uint64(len(acked))-appliedAt),
		fmt.Sprintf("promoted primary and re-pointed follower byte-identical to the uncrashed oracle (%d-byte snapshot)", len(want)),
	)
	return out, nil
}
