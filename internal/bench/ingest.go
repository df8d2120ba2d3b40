package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"rulematch/internal/core"
	"rulematch/internal/datagen"
	"rulematch/internal/rule"
	"rulematch/internal/sim"
	"rulematch/internal/table"
)

// The ingest experiment measures the zero-copy ingest pipeline end to
// end — byte-scan CSV parse, tokenize-and-intern into ID streams,
// arena-backed profile bind — on one synthetic dataset. The
// differential tests in internal/core prove its MatchState output is
// bit-identical to encoding/csv tables scored without profiles, so the
// numbers here are purely about cost.

// IngestResult is the machine-readable outcome of the experiment.
type IngestResult struct {
	Dataset string  `json:"dataset"`
	Scale   float64 `json:"scale"`
	// Rows is the total record count ingested per run (both tables).
	Rows int `json:"rows"`
	// Seconds is the best-of-N wall time of one full ingest.
	Seconds float64 `json:"seconds"`
	// RowsPerSec is Rows/Seconds.
	RowsPerSec float64 `json:"rows_per_sec"`
	// AllocsPerRow is the mean heap allocations per table row.
	AllocsPerRow float64 `json:"allocs_per_row"`
	// BytesPerRow is the mean heap bytes allocated per table row.
	BytesPerRow float64 `json:"bytes_per_row"`
}

// IngestResultJSON renders the result as indented JSON.
func IngestResultJSON(r *IngestResult) ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// ingestFunc is the matching function whose profile caches the ingest
// builds: one feature per profile kind (set, tfidf-weighted, q-gram
// set, phonetic) over the products-shaped attributes.
const ingestFunc = `
rule r1: jaccard(title, title) >= 0.4 and tf_idf(title, title) >= 0.3
rule r2: trigram(modelno, modelno) >= 0.5 and soundex(brand, brand) >= 0.5
`

// ingestIters is how many timed runs the pipeline gets; the fastest
// counts for throughput, the mean for allocations.
const ingestIters = 3

// runIngest executes one full ingest: parse both CSV blobs, compile the
// matching function and build every profile cache.
func runIngest(csvA, csvB []byte, f rule.Function) error {
	a, err := table.ReadCSV(bytes.NewReader(csvA), "A")
	if err != nil {
		return err
	}
	b, err := table.ReadCSV(bytes.NewReader(csvB), "B")
	if err != nil {
		return err
	}
	c, err := core.Compile(f, sim.Standard(), a, b)
	if err != nil {
		return err
	}
	c.EnableProfileCache()
	return nil
}

// Ingest times and meters the ingest pipeline on one dataset domain.
// Allocation counters come from runtime.MemStats deltas around the
// timed runs, so the harness itself must not allocate inside the
// window.
func Ingest(dom *datagen.Domain, scale float64) (*Table, *IngestResult, error) {
	ds, err := datagen.Generate(datagen.StandardConfig(dom, scale))
	if err != nil {
		return nil, nil, err
	}
	f, err := rule.ParseFunction(ingestFunc)
	if err != nil {
		return nil, nil, err
	}
	var bufA, bufB bytes.Buffer
	if err := ds.A.WriteCSV(&bufA); err != nil {
		return nil, nil, err
	}
	if err := ds.B.WriteCSV(&bufB); err != nil {
		return nil, nil, err
	}
	csvA, csvB := bufA.Bytes(), bufB.Bytes()
	rows := ds.A.Len() + ds.B.Len()

	// Warm-up run outside the metered window.
	if err := runIngest(csvA, csvB, f); err != nil {
		return nil, nil, err
	}
	var best time.Duration
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	for i := 0; i < ingestIters; i++ {
		start := time.Now()
		if err := runIngest(csvA, csvB, f); err != nil {
			return nil, nil, err
		}
		if d := time.Since(start); best == 0 || d < best {
			best = d
		}
	}
	runtime.ReadMemStats(&m1)
	res := &IngestResult{
		Dataset:      dom.Name(),
		Scale:        scale,
		Rows:         rows,
		Seconds:      best.Seconds(),
		RowsPerSec:   float64(rows) / best.Seconds(),
		AllocsPerRow: float64(m1.Mallocs-m0.Mallocs) / ingestIters / float64(rows),
		BytesPerRow:  float64(m1.TotalAlloc-m0.TotalAlloc) / ingestIters / float64(rows),
	}

	tbl := &Table{
		Title:  fmt.Sprintf("Ingest pipeline: CSV parse + tokenize + profile bind, %s at scale %g (%d rows)", dom.Name(), scale, rows),
		Header: []string{"time (ms)", "rows/sec", "allocs/row", "bytes/row"},
		Notes:  []string{"byte-scan reader + intern-at-parse ID streams + arena-backed profiles"},
	}
	tbl.AddRow(ms(best),
		fmt.Sprintf("%.0f", res.RowsPerSec),
		fmt.Sprintf("%.1f", res.AllocsPerRow),
		fmt.Sprintf("%.0f", res.BytesPerRow))
	return tbl, res, nil
}
