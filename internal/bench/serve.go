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
	"strings"
	"sync"
	"time"

	"rulematch/internal/core"
	"rulematch/internal/server"
	"rulematch/internal/wal"
)

// ServeConfig sizes the session-store load experiment. Zero values
// pick defaults small enough for CI smoke runs.
type ServeConfig struct {
	Sessions     int     // working set (default 8)
	Clients      int     // concurrent client goroutines (default 4)
	OpsPerClient int     // requests per client (default 200)
	ReadFrac     float64 // fraction of read requests (default 0.7)
	Records      int     // records per table side per session (default 60)
	BudgetFactor float64 // budget = factor x one session (default 2.5)
}

func (c *ServeConfig) defaults() {
	if c.Sessions == 0 {
		c.Sessions = 8
	}
	if c.Clients == 0 {
		c.Clients = 4
	}
	if c.OpsPerClient == 0 {
		c.OpsPerClient = 200
	}
	if c.ReadFrac == 0 {
		c.ReadFrac = 0.7
	}
	if c.Records == 0 {
		c.Records = 60
	}
	if c.BudgetFactor == 0 {
		c.BudgetFactor = 2.5
	}
}

var serveNames = []string{
	"matthew richardson", "john smith", "maria garcia", "wei chen",
	"alexandra cooper", "james wilson", "fatima hassan", "carlos lopez",
	"sarah jones", "david kim", "emma brown", "lucas silva",
}
var serveCities = []string{"seattle", "madison", "chicago", "milwaukee", "austin", "portland"}

const serveRules = `rule r1: jaro_winkler(name, name) >= 0.9 and exact_match(city, city) >= 1
rule r2: trigram(name, name) >= 0.7
rule r3: jaccard(name, name) >= 0.6
`

// serveCSV renders one synthetic table side as the CSV the create
// endpoint ingests (id first column).
func serveCSV(rng *rand.Rand, side string, n int) string {
	var b strings.Builder
	b.WriteString("id,name,city\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "%s%d,%s,%s\n", side, i,
			serveNames[rng.Intn(len(serveNames))], serveCities[rng.Intn(len(serveCities))])
	}
	return b.String()
}

// quantile returns the q-quantile of sorted latencies.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return sorted[i]
}

type latencies struct {
	mu   sync.Mutex
	byOp map[string][]time.Duration
}

func (l *latencies) add(op string, d time.Duration) {
	l.mu.Lock()
	l.byOp[op] = append(l.byOp[op], d)
	l.mu.Unlock()
}

// Serve runs the session-store load experiment: N durable sessions
// behind the HTTP API with a memory budget a fraction of the working
// set, hammered by concurrent clients mixing reads and edits. Every
// touch of a cold session is a transparent snapshot reload paid inside
// the request, so the p99 read latency is the price of running over
// budget — that, the eviction/reload counts, and the resident-byte
// ceiling are the outputs.
func Serve(cfg ServeConfig) (*Table, error) {
	cfg.defaults()
	dir, err := os.MkdirTemp("", "emserveload")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	ecfg := core.Config{Workers: 1} // emserve's default configuration
	srv := server.New(ecfg)
	if err := srv.EnableDurability(server.Durability{
		Dir: dir, Policy: wal.SyncPolicy{Mode: wal.SyncNever},
	}); err != nil {
		return nil, err
	}
	ln, err := server.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)
	defer hs.Close()
	base := "http://" + ln.Addr().String()
	client := &http.Client{}

	post := func(path string, body, out any) (int, error) {
		data, err := json.Marshal(body)
		if err != nil {
			return 0, err
		}
		resp, err := client.Post(base+path, "application/json", bytes.NewReader(data))
		if err != nil {
			return 0, err
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		if out != nil && len(raw) > 0 {
			if err := json.Unmarshal(raw, out); err != nil {
				return resp.StatusCode, err
			}
		}
		return resp.StatusCode, nil
	}

	// Admit the working set, then cap the budget at a fraction of it.
	names := make([]string, cfg.Sessions)
	var perSession int64
	for i := range names {
		names[i] = fmt.Sprintf("load%d", i)
		rng := rand.New(rand.NewSource(int64(7000 + i)))
		req := map[string]any{
			"name":   names[i],
			"tableA": serveCSV(rng, "a", cfg.Records),
			"tableB": serveCSV(rng, "b", cfg.Records),
			"rules":  serveRules,
			"block":  "city",
		}
		var info struct {
			ResidentBytes int64 `json:"residentBytes"`
		}
		code, err := post("/v1/sessions", req, &info)
		if err != nil {
			return nil, err
		}
		if code != http.StatusCreated {
			return nil, fmt.Errorf("create %s: status %d", names[i], code)
		}
		if i == 0 {
			perSession = info.ResidentBytes
		}
	}
	budget := int64(cfg.BudgetFactor * float64(perSession))
	srv.SetLimits(0, budget, 0)

	lat := &latencies{byOp: map[string][]time.Duration{}}
	var wg sync.WaitGroup
	errs := make(chan error, cfg.Clients)
	loadStart := time.Now()
	for c := 0; c < cfg.Clients; c++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < cfg.OpsPerClient; i++ {
				name := names[rng.Intn(len(names))]
				if rng.Float64() < cfg.ReadFrac {
					start := time.Now()
					resp, err := client.Get(base + "/v1/sessions/" + name + "/stats")
					if err != nil {
						errs <- err
						return
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						errs <- fmt.Errorf("stats %s: status %d", name, resp.StatusCode)
						return
					}
					lat.add("read (stats)", time.Since(start))
				} else {
					edit := map[string]any{
						"op": "set_threshold", "rule": 1, "pred": 0,
						"threshold": 0.5 + 0.4*rng.Float64(),
					}
					start := time.Now()
					code, err := post("/v1/sessions/"+name+"/edits", edit, nil)
					if err != nil {
						errs <- err
						return
					}
					if code != http.StatusOK {
						errs <- fmt.Errorf("edit %s: status %d", name, code)
						return
					}
					lat.add("edit (set_threshold)", time.Since(start))
				}
			}
		}(int64(9000 + c))
	}
	wg.Wait()
	loadDur := time.Since(loadStart)
	close(errs)
	for err := range errs {
		return nil, err
	}

	c := srv.Store().Counters()
	if c.EvictedTotal == 0 {
		return nil, fmt.Errorf("working set %d x %d bytes never exceeded budget %d: no evictions measured",
			cfg.Sessions, perSession, budget)
	}

	out := &Table{
		Title: fmt.Sprintf("Session-store load: %d sessions over a %.1f-session budget, %d clients",
			cfg.Sessions, cfg.BudgetFactor, cfg.Clients),
		Header: []string{"Request", "n", "p50 ms", "p99 ms", "max ms"},
	}
	totalOps := 0
	ops := make([]string, 0, len(lat.byOp))
	for op := range lat.byOp {
		ops = append(ops, op)
	}
	sort.Strings(ops)
	for _, op := range ops {
		ds := lat.byOp[op]
		sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
		totalOps += len(ds)
		out.AddRow(op, fmt.Sprint(len(ds)),
			ms(quantile(ds, 0.50)), ms(quantile(ds, 0.99)), ms(ds[len(ds)-1]))
	}
	out.Notes = append(out.Notes,
		fmt.Sprintf("budget %d bytes (~%.1f of %d sessions x %d bytes each)",
			budget, cfg.BudgetFactor, cfg.Sessions, perSession),
		fmt.Sprintf("%d evictions, %d transparent reloads; %d/%d sessions resident at end (%d bytes)",
			c.EvictedTotal, c.ReloadedTotal, c.Resident, c.Sessions, c.ResidentBytes),
		fmt.Sprintf("%d requests in %s (%.0f req/s); p99 reads absorb the snapshot-reload cost",
			totalOps, loadDur.Round(time.Millisecond), float64(totalOps)/loadDur.Seconds()),
	)
	return out, nil
}
