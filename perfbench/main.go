// Command perfbench is the repository's end-to-end benchmark: three
// single-client, closed-loop workloads driven over HTTP against an
// in-process durable emserve stack (server.New + EnableDurability,
// fsync=always), plus a traced mode that splits each operation across
// the modules it passes through by timing the benchmark's own calls
// into their public functions.
//
//	perfbench --workload debug-loop --seed 1 --seconds 10 --trace 0
//
// Inputs (tables, mined rules, op scripts) are generated from --seed
// before any server starts; the script length is a function of
// --seconds alone, so one (seed, seconds) pair always replays the same
// operations. The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end ones, with --trace 1 the per-layer ones.
// Earlier lines carry the sample counts, the workload-specific
// latencies and (traced) the attribution tables. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// workload is one traffic mix and how to generate its inputs (sessions
// and op script) from a seed.
type workload struct {
	name string
	gen  func(seed int64, seconds int) (*inputs, error)
}

var workloads = []workload{
	{name: "debug-loop", gen: genDebugLoop},
	{name: "replicated-stream", gen: genStream},
	{name: "session-churn", gen: genChurn},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: debug-loop, replicated-stream or session-churn")
		seed    = flag.Int64("seed", 1, "input seed (tables, rules and op script)")
		seconds = flag.Int("seconds", 10, "nominal timed-phase length; sizes the op script")
		trace   = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		workdir = flag.String("workdir", ".bench_build", "scratch directory for data dirs and span files")
	)
	flag.Parse()
	w, ok := findWorkload(*name)
	if !ok {
		fatalf("unknown workload %q", *name)
	}
	if *seconds < 1 {
		fatalf("--seconds must be at least 1")
	}
	run, err := os.MkdirTemp(mustMkdir(*workdir), "run-")
	if err != nil {
		fatalf("create run directory: %v", err)
	}
	defer os.RemoveAll(run)

	in, err := w.gen(*seed, *seconds)
	if err != nil {
		fatalf("generate inputs: %v", err)
	}
	var res *result
	if *trace == 1 {
		spanFile := filepath.Join(*workdir, fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, *seed))
		res, err = runTraced(in, run, spanFile)
	} else {
		res, err = runEndToEnd(in, run)
	}
	if err != nil {
		fatalf("%s: %v", w.name, err)
	}
	for k, m := range res.Metrics {
		if math.IsInf(m.Value, 1) || math.IsNaN(m.Value) {
			// A failed request misses every latency limit.
			m.Value = math.MaxFloat64
			res.Metrics[k] = m
		}
	}
	out, err := json.Marshal(res)
	if err != nil {
		fatalf("encode result: %v", err)
	}
	fmt.Println(string(out))
}

func mustMkdir(dir string) string {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fatalf("create %s: %v", dir, err)
	}
	return dir
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}

// printDetail writes one labelled JSON line ahead of the result line.
// A latency that includes a failed request is infinite; JSON has no
// infinity, so it prints as null.
func printDetail(label string, v any) {
	b, err := json.Marshal(finite(v))
	if err != nil {
		fatalf("encode %s: %v", label, err)
	}
	fmt.Printf("%s %s\n", label, b)
}

// logf reports progress on standard error.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, strings.TrimSuffix(format, "\n")+"\n", args...)
}

// finite replaces NaN and ±Inf inside maps and slices by nil.
func finite(v any) any {
	switch x := v.(type) {
	case float64:
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return nil
		}
	case map[string]any:
		out := make(map[string]any, len(x))
		for k, e := range x {
			out[k] = finite(e)
		}
		return out
	case map[string]float64:
		out := make(map[string]any, len(x))
		for k, e := range x {
			out[k] = finite(e)
		}
		return out
	case []float64:
		out := make([]any, len(x))
		for i, e := range x {
			out[i] = finite(e)
		}
		return out
	}
	return v
}
