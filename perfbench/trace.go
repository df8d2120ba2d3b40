package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"rulematch/internal/core"
	"rulematch/internal/incremental"
	"rulematch/internal/sessionstore"
)

// span is one timed call into a module's public function, recorded by
// the benchmark around the call (spans inside the program are a later
// change). Times are nanoseconds since the pass started.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"` // index of the enclosing span, -1 for a root
	Op     int32  `json:"op"`     // script index, -1 outside the script
}

// tracer keeps spans in memory; with on=false every call is a no-op,
// which is the untraced direct pass the tracing overhead is measured
// against.
type tracer struct {
	on    bool
	t0    time.Time
	op    int32
	spans []span
	stack []int32
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now(), op: -1} }

func (t *tracer) begin(name string) int32 {
	if !t.on {
		return -1
	}
	parent := int32(-1)
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.t0)), End: -1, Parent: parent, Op: t.op})
	id := int32(len(t.spans) - 1)
	t.stack = append(t.stack, id)
	return id
}

func (t *tracer) end(id int32) {
	if !t.on {
		return
	}
	t.spans[id].End = int64(time.Since(t.t0))
	t.stack = t.stack[:len(t.stack)-1]
}

// run times fn inside a span.
func (t *tracer) run(name string, fn func()) {
	id := t.begin(name)
	fn()
	t.end(id)
}

// selfTimes returns each span's duration minus the part its direct
// children cover (children of one span never overlap: one goroutine).
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	return self
}

// checkNesting verifies no child span exceeds its parent.
func checkNesting(spans []span) error {
	for i, s := range spans {
		if s.End < s.Start {
			return fmt.Errorf("span %d (%s) ends before it starts", i, s.Name)
		}
		if s.Parent < 0 {
			continue
		}
		p := spans[s.Parent]
		if s.Start < p.Start || s.End > p.End {
			return fmt.Errorf("span %d (%s) [%d,%d] exceeds parent %s [%d,%d]", i, s.Name, s.Start, s.End, p.Name, p.Start, p.End)
		}
	}
	return nil
}

// module is a span's layer: the prefix before the first dot.
func module(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

// writeSpans writes the spans as JSON lines when the run ends.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			_ = f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// attribution splits the typical operation of one root span name
// across modules: the ops whose root duration lies between the 40th
// and 60th percentile, averaged. The root's own self time is the
// benchmark glue between module calls — the unattributed remainder.
func attribution(spans []span, self []int64, root string) map[string]float64 {
	var roots []int
	for i, s := range spans {
		if s.Parent < 0 && s.Name == root {
			roots = append(roots, i)
		}
	}
	if len(roots) == 0 {
		return nil
	}
	sort.Slice(roots, func(a, b int) bool {
		ra, rb := spans[roots[a]], spans[roots[b]]
		return ra.End-ra.Start < rb.End-rb.Start
	})
	lo, hi := len(roots)*4/10, len(roots)*6/10+1
	if hi > len(roots) {
		hi = len(roots)
	}
	band := map[int32]bool{}
	var total float64
	for _, i := range roots[lo:hi] {
		band[int32(i)] = true
		total += float64(spans[i].End - spans[i].Start)
	}
	n := float64(hi - lo)
	out := map[string]float64{"total_ms": total / n / 1e6}
	// Walk each span up to its root to find whether it belongs to the band.
	rootOf := make([]int32, len(spans))
	for i, s := range spans {
		if s.Parent < 0 {
			rootOf[i] = int32(i)
		} else {
			rootOf[i] = rootOf[s.Parent]
		}
	}
	for i, s := range spans {
		if !band[rootOf[i]] {
			continue
		}
		key := module(s.Name) + "_ms"
		if s.Parent < 0 {
			key = "unattributed_ms"
		}
		out[key] += float64(self[i]) / n / 1e6
	}
	return out
}

// decompEvery: session-churn decomposes the next op's session every
// this many ops, when that session is evicted at the time.
const decompEvery = 8

// coldRuns is the number of times the traced pass times core.Compile
// and the cold materializing run.
const coldRuns = 3

// pass is one replay of the script against a fresh stack.
type pass struct {
	d     *direct
	spans []span
	check error
}

// directPass replays the script as direct calls, traced or not.
func directPass(in *inputs, dir string, traced bool) (*pass, error) {
	datadir := filepath.Join(dir, "data")
	st, _, err := startStack(in, datadir)
	if err != nil {
		return nil, err
	}
	defer st.close()
	tr := newTracer(traced)
	d, err := newDirect(in, st, tr, dir)
	if err != nil {
		return nil, err
	}
	if traced {
		if err := d.coldRuns(); err != nil {
			return nil, err
		}
		if err := d.decompose(datadir, in.sessions[0].Name); err != nil {
			return nil, err
		}
	}
	store := st.primary.srv.Store()
	for i, o := range in.script {
		if traced && in.memBudget > 0 && i%decompEvery == 0 {
			if ei, ok := store.Info(o.Session); ok && ei.State == sessionstore.StateEvicted {
				if err := d.decompose(datadir, o.Session); err != nil {
					return nil, err
				}
			}
		}
		took, err := d.do(i, o)
		if o.Kind == kRecords && err == nil {
			err = d.afterRecords(i, o)
		}
		d.rec.request(opName(o), took, err, classOf(o.Kind), "k:"+o.Kind)
	}
	p := &pass{d: d, spans: tr.spans}
	p.check = checkOutputs(in, st)
	return p, nil
}

// coldRuns times core.Compile and then incremental.NewSessionConfig +
// Session.Run on the workload's inputs, outside the script.
func (d *direct) coldRuns() error {
	for i := 0; i < coldRuns; i++ {
		s := &d.in.sessions[0]
		a, b, err := s.tables()
		if err != nil {
			return err
		}
		pairs, err := d.in.blocker().Pairs(a, b)
		if err != nil {
			return err
		}
		var c *core.Compiled
		d.tr.run("core.compile", func() { c, err = core.Compile(s.rules, d.in.lib, a, b) })
		if err != nil {
			return err
		}
		d.tr.run("core.cold_run", func() {
			s := incremental.NewSessionConfig(c, pairs, engineConfig())
			err = s.Run(context.Background())
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// runTraced is the traced run: the same seed and script three times on
// fresh stacks — over HTTP untraced, as direct calls untraced, and as
// direct calls inside spans. HTTP minus direct is the transport cost,
// traced minus untraced direct the tracing overhead; the traced pass's
// spans and counts give the per-layer metrics.
func runTraced(in *inputs, dir, spanFile string) (*result, error) {
	httpDir := filepath.Join(dir, "http")
	st, _, err := startStack(in, httpDir)
	if err != nil {
		return nil, err
	}
	recHTTP := newRecorder()
	driveHTTP(in, st, recHTTP)
	checkHTTP := checkOutputs(in, st)
	st.close()
	if err := os.RemoveAll(httpDir); err != nil {
		return nil, err
	}
	plain, err := directPass(in, filepath.Join(dir, "direct"), false)
	if err != nil {
		return nil, err
	}
	traced, err := directPass(in, filepath.Join(dir, "traced"), true)
	if err != nil {
		return nil, err
	}
	if err := checkNesting(traced.spans); err != nil {
		return nil, err
	}
	if err := writeSpans(spanFile, traced.spans); err != nil {
		return nil, err
	}

	res := &result{Correct: true, Metrics: layerMetrics(recHTTP, plain, traced)}
	for _, r := range []*recorder{recHTTP, plain.d.rec, traced.d.rec} {
		a, f := r.totals()
		res.Attempted += a
		res.Failed += f
		for _, n := range r.notes {
			logf("%s: failed request: %s", in.workload, n)
		}
	}
	for _, c := range []error{checkHTTP, plain.check, traced.check} {
		if c != nil {
			res.Correct = false
			logf("%s: output check failed: %v", in.workload, c)
		}
	}
	res.Correct = res.Correct && res.Failed == 0
	printDetail("attribution", attributionDetail(in, recHTTP, plain, traced))
	return res, nil
}

// p50z is the median, or 0 for a layer the workload does not reach.
func p50z(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return quantile(xs, 0.5)
}

func p90z(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return quantile(xs, 0.9)
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

// waits is each step's propagation minus its replica.apply: the time
// the follower spent learning of the record rather than applying it.
func (c *layerCounts) waits() []float64 {
	var out []float64
	for i, p := range c.propagationMs {
		if i < len(c.applyMs) {
			out = append(out, p-c.applyMs[i])
		}
	}
	return out
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// spanIndex groups span durations (ms) by name, and by name under a
// given root span name.
type spanIndex struct {
	byName map[string][]float64
	byRoot map[string][]float64 // key: root name + "/" + span name
}

func indexSpans(spans []span) spanIndex {
	ix := spanIndex{byName: map[string][]float64{}, byRoot: map[string][]float64{}}
	root := make([]int32, len(spans))
	for i, s := range spans {
		root[i] = int32(i)
		if s.Parent >= 0 {
			root[i] = root[s.Parent]
		}
		d := float64(s.End-s.Start) / 1e6
		ix.byName[s.Name] = append(ix.byName[s.Name], d)
		k := spans[root[i]].Name + "/" + s.Name
		ix.byRoot[k] = append(ix.byRoot[k], d)
	}
	return ix
}

// editOps are the incremental operations the edit endpoint exposes.
var editOps = []string{"add_predicate", "remove_predicate", "tighten", "relax", "set_threshold", "add_rule", "remove_rule"}

// layerMetrics assembles the per-layer metrics. Every workload reports
// every metric; a layer the workload does not reach reads 0.
func layerMetrics(recHTTP *recorder, plain, traced *pass) map[string]metric {
	m := map[string]metric{}
	put := func(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }
	ix := indexSpans(traced.spans)
	c := traced.d.cnt
	direct := plain.d.rec

	// server
	put("server.transport_write_ms", "ms", p50z(recHTTP.lat[cWrite])-p50z(direct.lat[cWrite]))
	put("server.transport_read_ms", "ms", p50z(recHTTP.lat[cRead])-p50z(direct.lat[cRead]))
	readEnc := append(append([]float64(nil), ix.byRoot["op.rules/server.encode"]...), ix.byRoot["op.matches/server.encode"]...)
	put("server.encode_ms", "ms", p50z(readEnc))
	put("server.resp_bytes", "bytes", mean(c.respBytes))
	put("server.decode_ms", "ms", p50z(ix.byRoot["op.records/server.decode"]))
	put("server.req_bytes", "bytes", mean(c.reqBytes))

	// sessionstore
	put("sessionstore.acquire_p50_ms", "ms", p50z(ix.byName["sessionstore.acquire"]))
	put("sessionstore.acquire_p90_ms", "ms", p90z(ix.byName["sessionstore.acquire"]))
	put("sessionstore.reload_ratio", "ratio", ratio(float64(c.reloads), float64(c.acquires)))
	put("sessionstore.release_ms", "ms", p50z(ix.byName["sessionstore.release"]))
	put("sessionstore.evict_ratio", "ratio", ratio(float64(c.evictions), float64(c.releases)))

	// incremental
	for _, op := range editOps {
		xs := ix.byName["incremental."+op]
		put("incremental."+op+"_p50_ms", "ms", p50z(xs))
		put("incremental."+op+"_total_ms", "ms", sum(xs))
	}
	put("incremental.pairs_examined", "count", float64(c.examined))
	put("incremental.ownership_moves", "count", float64(c.moves))
	put("incremental.moves_per_examined", "ratio", ratio(float64(c.moves), float64(c.examined)))
	put("incremental.sweep_ms", "ms", p50z(ix.byName["incremental.sweep"]))
	put("incremental.reconfigure_ms", "ms", p50z(ix.byName["incremental.reconfigure"]))
	put("incremental.add_records_ms", "ms", p50z(ix.byName["incremental.add_records"]))
	put("incremental.delete_records_ms", "ms", p50z(ix.byName["incremental.delete_records"]))
	put("incremental.pairs_added", "count", float64(c.pairsAdded))

	// core
	ops := float64(c.sessionOps)
	put("core.feature_computes", "count/op", ratio(float64(c.stats.FeatureComputes), ops))
	put("core.memo_hits", "count/op", ratio(float64(c.stats.MemoHits), ops))
	put("core.pred_evals", "count/op", ratio(float64(c.stats.PredEvals), ops))
	put("core.rule_evals", "count/op", ratio(float64(c.stats.RuleEvals), ops))
	put("core.memo_hit_ratio", "ratio", ratio(float64(c.stats.MemoHits), float64(c.stats.MemoHits+c.stats.FeatureComputes)))
	put("core.compile_ms", "ms", p50z(ix.byName["core.compile"]))
	put("core.cold_run_ms", "ms", p50z(ix.byName["core.cold_run"]))

	// bitmap, block
	put("bitmap.count_ms", "ms", p50z(ix.byName["bitmap.count"]))
	put("block.delta_ms", "ms", p50z(ix.byName["block.delta"]))

	// wal
	put("wal.record_p50_ms", "ms", p50z(ix.byName["wal.record"]))
	put("wal.record_p90_ms", "ms", p90z(ix.byName["wal.record"]))
	put("wal.bytes_per_op", "bytes", ratio(float64(c.walBytes), float64(c.walRecords)))
	put("wal.compactions", "count", float64(c.compactions))
	put("wal.replay_ms", "ms", p50z(ix.byName["wal.replay"]))

	// persist, table
	put("persist.read_names_ms", "ms", p50z(ix.byName["persist.read_names"]))
	put("persist.load_ms", "ms", p50z(ix.byName["persist.load"]))
	put("persist.save_ms", "ms", p50z(ix.byName["persist.save"]))
	put("persist.snapshot_bytes", "bytes", p50z(traced.d.snapshotBytes))
	put("table.read_csv_ms", "ms", p50z(ix.byName["table.read_csv"]))

	// replica
	put("replica.apply_ms", "ms", p50z(c.applyMs))
	put("replica.wait_ms", "ms", p50z(c.waits()))
	put("replica.lag_ops", "count", mean(c.lagOps))

	// tracing itself
	put("trace.overhead_write_ms", "ms", p50z(traced.d.rec.lat[cWrite])-p50z(direct.lat[cWrite]))
	put("trace.overhead_read_ms", "ms", p50z(traced.d.rec.lat[cRead])-p50z(direct.lat[cRead]))
	return m
}

// attributionDetail splits each op kind's typical latency across
// modules (traced pass), next to its HTTP and direct medians, the
// transport cost and the tracing overhead.
func attributionDetail(in *inputs, recHTTP *recorder, plain, traced *pass) map[string]any {
	self := selfTimes(traced.spans)
	out := map[string]any{"workload": in.workload, "seed": in.seed}
	kinds := []string{kEdit, kRules, kMatches, kSweep, kRecords}
	for _, k := range kinds {
		h, p, t := recHTTP.lat["k:"+k], plain.d.rec.lat["k:"+k], traced.d.rec.lat["k:"+k]
		if len(t) == 0 {
			continue
		}
		a := attribution(traced.spans, self, "op."+k)
		row := map[string]any{
			"n": len(t), "http_p50_ms": p50z(h), "direct_p50_ms": p50z(p), "traced_p50_ms": p50z(t),
			"transport_ms": p50z(h) - p50z(p), "tracing_overhead_ms": p50z(t) - p50z(p),
			"band_40_60": a,
		}
		out[k] = row
	}
	c := traced.d.cnt
	if len(c.propagationMs) > 0 {
		ix := indexSpans(traced.spans)
		out["propagation"] = map[string]any{
			"n": len(c.propagationMs), "http_p50_ms": p50z(recHTTP.lat[cPropagation]),
			"traced_p50_ms": p50z(c.propagationMs), "replica.apply_p50_ms": p50z(c.applyMs),
			"replica.wait_p50_ms": p50z(c.waits()),
			"block.delta_p50_ms":  p50z(ix.byName["block.delta"]),
		}
	}
	if c.reloads > 0 {
		ix := indexSpans(traced.spans)
		out["reload"] = map[string]any{
			"acquire_p50_ms":                 p50z(ix.byName["sessionstore.acquire"]),
			"persist.read_names_p50_ms":      p50z(ix.byName["persist.read_names"]),
			"table.read_csv_p50_ms":          p50z(ix.byName["table.read_csv"]),
			"persist.load_p50_ms":            p50z(ix.byName["persist.load"]),
			"wal.replay_p50_ms":              p50z(ix.byName["wal.replay"]),
			"incremental.reconfigure_p50_ms": p50z(ix.byName["incremental.reconfigure"]),
			"persist.save_p50_ms":            p50z(ix.byName["persist.save"]),
			"decompositions":                 len(ix.byName["persist.load"]),
		}
	}
	return out
}
