package bench

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"rulematch/internal/cliflags"
	"rulematch/internal/datagen"
	"rulematch/internal/incremental"
)

// liveHeap returns the live heap after a forced collection.
func liveHeap() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// TestSessionHeapTracksAccountedBytes builds a products session the way
// emserve does (its engine config, every mined rule, a full run) — and,
// for the profiles=false case, the way incremental.NewSession does, over
// a compiled function without the profile cache — and requires the
// live heap it adds to stay within 1.5× of what the session accounts
// for: memo + bitmaps (§7.4) + the compiled function's profile cache. A structure that grows with use but is in none of
// those — a per-token-pair score cache, say — breaks the bound, and
// with it any memory budget derived from these figures.
func TestSessionHeapTracksAccountedBytes(t *testing.T) {
	for _, scale := range []float64{0.02, 0.05} {
		if scale > 0.02 && testing.Short() {
			t.Logf("scale %v skipped in -short mode", scale)
			continue
		}
		task, err := PrepareTask(datagen.Products(), scale, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, profiles := range []bool{true, false} {
			t.Run(fmt.Sprintf("scale=%v/profiles=%v", scale, profiles), func(t *testing.T) {
				before := liveHeap()
				c, err := task.CompileSubset(len(task.Rules))
				if err != nil {
					t.Fatal(err)
				}
				var s *incremental.Session
				if profiles {
					s = incremental.NewSessionConfig(c, task.Pairs(), cliflags.NewEngine().Config())
				} else {
					s = incremental.NewSession(c, task.Pairs())
				}
				if err := s.Run(context.Background()); err != nil {
					t.Fatal(err)
				}
				growth := int64(liveHeap()) - int64(before)
				memo, bitmaps := s.MemoryBytes()
				profileBytes := int64(c.ProfileBytes())
				accounted := memo + bitmaps + profileBytes
				ratio := float64(growth) / float64(accounted)
				t.Logf("heap growth %d B; memo %d + bitmaps %d + profiles %d = %d B (%.2fx)",
					growth, memo, bitmaps, profileBytes, accounted, ratio)
				if ratio > 1.5 {
					t.Errorf("session heap growth is %.2fx its memo + bitmaps + profiles, want <= 1.5x", ratio)
				}
				runtime.KeepAlive(s)
			})
		}
	}
}
