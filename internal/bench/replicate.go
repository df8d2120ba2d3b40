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
	"time"

	"rulematch/internal/core"
	"rulematch/internal/replica"
	"rulematch/internal/server"
	"rulematch/internal/wal"
)

// ReplicateConfig sizes the replication experiment. Zero values pick
// defaults small enough for CI smoke runs.
type ReplicateConfig struct {
	Followers int // read replicas (default 2)
	Edits     int // primary write storm length (default 40)
	Reads     int // follower reads issued during the storm (default 120)
	Records   int // records per table side (default 60)
}

func (c *ReplicateConfig) defaults() {
	if c.Followers == 0 {
		c.Followers = 2
	}
	if c.Edits == 0 {
		c.Edits = 40
	}
	if c.Reads == 0 {
		c.Reads = 120
	}
	if c.Records == 0 {
		c.Records = 60
	}
}

// replicaNode is one follower: a read-only server sharing its store
// with a replication manager, behind a live listener.
type replicaNode struct {
	base string
	mgr  *replica.Manager
	srv  *server.Server
	stop func()
}

func startReplica(ecfg core.Config, primary string) (*replicaNode, error) {
	srv := server.New(ecfg)
	srv.SetPrimary(primary)
	mgr := replica.New(replica.Config{
		PrimaryURL:   primary,
		Store:        srv.Store(),
		Core:         ecfg,
		SyncInterval: 20 * time.Millisecond,
		WalWait:      200,
	})
	srv.SetReplicaSource(mgr)
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

// Replicate measures the WAL-shipping replication path end to end: a
// durable primary takes a write storm while followers tail its journal
// over HTTP. The outputs are the costs a deployment plans around —
// snapshot bootstrap time, write-to-replica propagation latency, and
// follower read latency under replication load — plus the differential
// check that every follower converges to the primary's exact snapshot
// bytes.
func Replicate(cfg ReplicateConfig) (*Table, error) {
	cfg.defaults()
	dir, err := os.MkdirTemp("", "emreplicate")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	ecfg := core.Config{Workers: 1} // emserve's default configuration
	prim := server.New(ecfg)
	if err := prim.EnableDurability(server.Durability{
		Dir: dir, Policy: wal.SyncPolicy{Mode: wal.SyncNever},
	}); err != nil {
		return nil, err
	}
	ln, err := server.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: prim.Handler()}
	go hs.Serve(ln)
	defer hs.Close()
	base := "http://" + ln.Addr().String()
	client := &http.Client{}

	const session = "repl"
	rng := rand.New(rand.NewSource(7100))
	req, err := json.Marshal(map[string]any{
		"name":   session,
		"tableA": serveCSV(rng, "a", cfg.Records),
		"tableB": serveCSV(rng, "b", cfg.Records),
		"rules":  serveRules,
		"block":  "city",
	})
	if err != nil {
		return nil, err
	}
	resp, err := client.Post(base+"/v1/sessions", "application/json", bytes.NewReader(req))
	if err != nil {
		return nil, err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		return nil, fmt.Errorf("create: status %d", resp.StatusCode)
	}

	// Bring up the followers and time their snapshot bootstraps.
	lat := &latencies{byOp: map[string][]time.Duration{}}
	nodes := make([]*replicaNode, cfg.Followers)
	for i := range nodes {
		start := time.Now()
		n, err := startReplica(ecfg, base)
		if err != nil {
			return nil, err
		}
		defer n.stop()
		nodes[i] = n
		for {
			if _, ok := n.mgr.AppliedSeq(session); ok {
				break
			}
			if time.Since(start) > 30*time.Second {
				return nil, fmt.Errorf("follower %d never bootstrapped", i)
			}
			time.Sleep(time.Millisecond)
		}
		lat.add("bootstrap (snapshot+tables)", time.Since(start))
	}

	// The storm: every edit is timed from the primary's 200 to the
	// moment the slowest follower has applied its sequence, interleaved
	// with follower reads so the read path is measured under load.
	readsPer := cfg.Reads / cfg.Edits
	for i := 0; i < cfg.Edits; i++ {
		edit, err := json.Marshal(map[string]any{
			"op": "set_threshold", "rule": 1, "pred": 0,
			"threshold": 0.5 + 0.4*rng.Float64(),
		})
		if err != nil {
			return nil, err
		}
		start := time.Now()
		resp, err := client.Post(base+"/v1/sessions/"+session+"/edits", "application/json", bytes.NewReader(edit))
		if err != nil {
			return nil, err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("edit %d: status %d", i, resp.StatusCode)
		}
		seq := uint64(i + 1)
		for _, n := range nodes {
			for {
				if got, ok := n.mgr.AppliedSeq(session); ok && got >= seq {
					break
				}
				if time.Since(start) > 30*time.Second {
					return nil, fmt.Errorf("edit %d never reached a follower", i)
				}
				time.Sleep(200 * time.Microsecond)
			}
		}
		lat.add("edit -> visible on all replicas", time.Since(start))

		for r := 0; r < readsPer; r++ {
			n := nodes[rng.Intn(len(nodes))]
			rs := time.Now()
			resp, err := client.Get(n.base + "/v1/sessions/" + session + "/stats")
			if err != nil {
				return nil, err
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				return nil, fmt.Errorf("replica stats: status %d", resp.StatusCode)
			}
			lat.add("replica read (stats)", time.Since(rs))
		}
	}

	// Differential close: every follower's snapshot download is
	// byte-identical to the primary's.
	snap := func(base string) ([]byte, error) {
		resp, err := client.Get(base + "/v1/sessions/" + session + "/snapshot")
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("snapshot: status %d", resp.StatusCode)
		}
		return io.ReadAll(resp.Body)
	}
	want, err := snap(base)
	if err != nil {
		return nil, err
	}
	for i, n := range nodes {
		got, err := snap(n.base)
		if err != nil {
			return nil, err
		}
		if !bytes.Equal(want, got) {
			return nil, fmt.Errorf("follower %d snapshot differs from primary (%d vs %d bytes)", i, len(want), len(got))
		}
	}

	out := &Table{
		Title: fmt.Sprintf("WAL replication: %d followers tailing a %d-edit storm",
			cfg.Followers, cfg.Edits),
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
		fmt.Sprintf("%d followers converged byte-identical to the primary after %d edits (%d-byte snapshot)",
			cfg.Followers, cfg.Edits, len(want)),
		"propagation = primary ack to slowest follower applied; followers long-poll the WAL endpoint",
	)
	return out, nil
}
