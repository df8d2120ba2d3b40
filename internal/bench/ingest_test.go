package bench

import (
	"testing"

	"rulematch/internal/datagen"
)

// ingestAllocCeiling is the checked-in allocation budget for the
// ingest pipeline: heap allocations per table row for parse + tokenize
// + profile bind. The measured value is ~8-12 allocs/row (committed in
// results/BENCH_ingest.json); the ceiling leaves ~2x headroom so the
// gate trips on a structural regression (a per-token or per-field
// allocation creeping back in, which costs tens per row), not on noise.
const ingestAllocCeiling = 24.0

// TestIngestAllocGate is the allocation-regression gate run in CI: the
// ingest pipeline must stay under the checked-in allocs/row ceiling.
func TestIngestAllocGate(t *testing.T) {
	_, res, err := Ingest(datagen.Products(), 0.02)
	if err != nil {
		t.Fatal(err)
	}
	if res.AllocsPerRow > ingestAllocCeiling {
		t.Errorf("ingest allocates %.1f/row, ceiling %.1f — a per-row or per-token allocation has crept back in",
			res.AllocsPerRow, ingestAllocCeiling)
	}
}
