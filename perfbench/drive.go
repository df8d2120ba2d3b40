package main

import (
	"encoding/json"
	"fmt"
	"io/fs"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"rulematch/internal/server"
)

// setupRepeats is how many times a run builds the stack; setup_s is
// their median and the last one carries the timed phase.
const setupRepeats = 5

// Latency classes of the end-to-end metrics.
const (
	cWrite       = "write"       // POST .../edits or POST .../records
	cRead        = "read"        // GET .../rules or GET .../matches
	cSweep       = "sweep"       // POST .../sweep
	cPropagation = "propagation" // records ack until the follower applied it
)

// url builds the request URL of a scripted op.
func (st *stack) url(o op) string {
	base := st.primary.base
	if o.Follower {
		base = st.follower.base
	}
	u := base + "/v1/sessions/" + o.Session
	switch o.Kind {
	case kEdit:
		return u + "/edits"
	case kRules:
		return u + "/rules"
	case kMatches:
		return u + "/matches?limit=" + strconv.Itoa(pageSize)
	case kSweep:
		return u + "/sweep"
	default:
		return u + "/records"
	}
}

// classOf maps an op kind to its end-to-end latency class.
func classOf(kind string) string {
	switch kind {
	case kEdit, kRecords:
		return cWrite
	case kSweep:
		return cSweep
	default:
		return cRead
	}
}

// checker validates decoded responses against what the script implies.
type checker struct {
	rules map[string]int // rule count each session keeps (stationary scripts)
}

func newChecker(in *inputs) checker {
	c := checker{rules: map[string]int{}}
	for _, s := range in.sessions {
		c.rules[s.Name] = len(s.rules.Rules)
	}
	return c
}

func (c checker) check(o op, body []byte) error {
	switch o.Kind {
	case kEdit:
		var r server.EditResponse
		if err := json.Unmarshal(body, &r); err != nil {
			return err
		}
		if d := r.Rules - c.rules[o.Session]; d < -1 || d > 1 { // ±1 inside a remove/add pair
			return fmt.Errorf("edit left %d rules, want %d", r.Rules, c.rules[o.Session])
		}
	case kRules:
		var r server.RuleList
		if err := json.Unmarshal(body, &r); err != nil {
			return err
		}
		if len(r.Rules) != c.rules[o.Session] {
			return fmt.Errorf("listing has %d rules, want %d", len(r.Rules), c.rules[o.Session])
		}
	case kMatches:
		var r server.MatchPage
		if err := json.Unmarshal(body, &r); err != nil {
			return err
		}
		if len(r.Matches) > pageSize || r.Total < len(r.Matches) {
			return fmt.Errorf("page of %d matches with total %d", len(r.Matches), r.Total)
		}
	case kSweep:
		var r server.SweepResponse
		if err := json.Unmarshal(body, &r); err != nil {
			return err
		}
		if len(r.Points) != 9 {
			return fmt.Errorf("sweep returned %d points, want 9", len(r.Points))
		}
	case kRecords:
		var req server.RecordsRequest
		var r server.RecordsResponse
		if err := json.Unmarshal(o.Body, &req); err != nil {
			return err
		}
		if err := json.Unmarshal(body, &r); err != nil {
			return err
		}
		if r.Appended != len(req.AppendB) || r.Deleted != len(req.DeleteB) {
			return fmt.Errorf("records applied +%d/-%d, want +%d/-%d", r.Appended, r.Deleted, len(req.AppendB), len(req.DeleteB))
		}
	}
	return nil
}

// statusErr folds a transport error or a non-2xx status into an error.
func statusErr(code int, err error, body []byte) error {
	if err != nil {
		return err
	}
	if code < 200 || code > 299 {
		return fmt.Errorf("status %d: %.200s", code, body)
	}
	return nil
}

// driveHTTP runs the script over HTTP, one request at a time.
func driveHTTP(in *inputs, st *stack, rec *recorder) {
	chk := newChecker(in)
	c := st.client
	for _, o := range in.script {
		method := http.MethodPost
		if o.Kind == kRules || o.Kind == kMatches {
			method = http.MethodGet
		}
		code, hdr, d, err := c.do(method, st.url(o), o.Body)
		err = statusErr(code, err, c.buf.Bytes())
		var wait time.Duration
		if o.Kind == kRecords {
			if err == nil {
				seq, perr := strconv.ParseUint(hdr.Get(server.HeaderSeq), 10, 64)
				if perr != nil {
					err = fmt.Errorf("records ack without a usable %s header: %v", server.HeaderSeq, perr)
				} else {
					wait, err = st.awaitApplied(o.Session, seq)
				}
			}
			rec.busy += wait
			if err != nil {
				rec.lat[cPropagation] = append(rec.lat[cPropagation], math.Inf(1))
			} else {
				rec.add(cPropagation, wait)
			}
		}
		if err == nil {
			err = chk.check(o, c.buf.Bytes())
		}
		rec.respBytes += int64(c.buf.Len())
		rec.request(opName(o), d, err, classOf(o.Kind), "kind:"+opName(o), "k:"+o.Kind)
	}
}

// runEndToEnd is the untraced run: set up setupRepeats times, drive
// the script over HTTP against the last stack, then check the outputs.
func runEndToEnd(in *inputs, dir string) (*result, error) {
	base := liveHeap()
	var setups []float64
	var st *stack
	var datadir string
	for i := 0; i < setupRepeats; i++ {
		d := filepath.Join(dir, fmt.Sprintf("setup%d", i))
		s, took, err := startStack(in, d)
		if err != nil {
			return nil, err
		}
		setups = append(setups, took.Seconds())
		if i < setupRepeats-1 {
			s.close()
			if err := os.RemoveAll(d); err != nil {
				return nil, err
			}
			continue
		}
		st, datadir = s, d
	}
	defer st.close()
	rec := newRecorder()
	driveHTTP(in, st, rec)
	heap := float64(int64(liveHeap())-int64(base)) / (1 << 20)
	disk, err := diskBytes(datadir)
	if err != nil {
		return nil, err
	}
	checkErr := checkOutputs(in, st)

	attempted, failed := rec.totals()
	res := &result{Correct: checkErr == nil && failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	put := func(name, unit string, v float64) { res.Metrics[name] = metric{Value: v, Unit: unit} }
	put("setup_s", "s", quantile(setups, 0.5))
	put("heap_mb", "MiB", heap)
	put("disk_mb", "MiB", float64(disk)/(1<<20))
	put("resp_kb", "KiB", float64(rec.respBytes)/float64(rec.requests)/(1<<10))

	printDetail("detail", endToEndDetail(in, rec, setups, checkErr))
	if checkErr != nil {
		logf("%s: output check failed: %v", in.workload, checkErr)
	}
	for _, n := range rec.notes {
		logf("%s: failed request: %s", in.workload, n)
	}
	return res, nil
}

// endToEndDetail is the breakdown printed ahead of the result: the
// sample count of every metric, the figures the benchmark reports but
// does not gate (ops_per_s and the latencies under their request names:
// read_*, edit_* or append_*, sweep_p50_ms, propagation_*), and
// per-op-kind figures.
func endToEndDetail(in *inputs, rec *recorder, setups []float64, checkErr error) map[string]any {
	samples := map[string]int{"setup_s": len(setups), "ops_per_s": rec.requests, "heap_mb": 1, "disk_mb": 1, "resp_kb": rec.requests}
	named := map[string]float64{"ops_per_s": float64(rec.requests) / rec.busy.Seconds()}
	report := func(name, class string, q float64) {
		if xs := rec.lat[class]; len(xs) > 0 {
			named[name] = quantile(xs, q)
			samples[name] = len(xs)
		}
	}
	write := "edit"
	if in.workload == "replicated-stream" {
		write = "append"
	}
	report("read_p50_ms", cRead, 0.5)
	report("read_p90_ms", cRead, 0.9)
	report(write+"_p50_ms", cWrite, 0.5)
	report(write+"_p90_ms", cWrite, 0.9)
	report("sweep_p50_ms", cSweep, 0.5)
	report("propagation_p50_ms", cPropagation, 0.5)
	report("propagation_p90_ms", cPropagation, 0.9)
	kinds := map[string]any{}
	for k, xs := range rec.lat {
		if name, ok := strings.CutPrefix(k, "kind:"); ok {
			kinds[name] = map[string]any{"n": len(xs), "p50_ms": quantile(xs, 0.5), "p90_ms": quantile(xs, 0.9),
				"failed": rec.failed[name]}
		}
	}
	check := "ok"
	if checkErr != nil {
		check = checkErr.Error()
	}
	return map[string]any{
		"workload": in.workload, "seed": in.seed, "setups_s": setups,
		"samples": samples, "named": named, "kinds": kinds, "check": check,
		"timed_s": rec.busy.Seconds(),
	}
}

// diskBytes is the size of every regular file under dir: the durable
// footprint of the sessions (tables, snapshots, journals).
func diskBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, e fs.DirEntry, err error) error {
		if err != nil || !e.Type().IsRegular() {
			return err
		}
		fi, err := e.Info()
		if err == nil {
			n += fi.Size()
		}
		return err
	})
	return n, err
}
