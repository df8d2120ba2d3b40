package core

import (
	"context"
	"sync"
	"sync/atomic"

	"rulematch/internal/bitmap"
)

// pairRange is a contiguous half-open pair range [lo, hi) owned by one
// shard.
type pairRange struct{ lo, hi int }

// chunkRanges splits n pairs into contiguous work-queue chunks for the
// shard driver: several chunks per worker so cancellation is prompt and
// stragglers rebalance, but no chunk smaller than a floor so per-chunk
// bookkeeping — a shard matcher with its scratch and value map — stays
// negligible. Chunk sizes are multiples of blockSize (the batch
// engine's block size, itself a multiple of 64), so batch blocks start
// at the same pair indices for every worker count as in one whole-range
// run — with check-cache-first, the per-block predicate order and with
// it every Stats counter of a marks-only run is independent of the
// worker count — and chunks write disjoint bitmap words.
func chunkRanges(n, workers, blockSize int) []pairRange {
	if n <= 0 || workers <= 0 {
		return nil
	}
	const (
		minChunk        = 1024
		chunksPerWorker = 4
	)
	chunk := (n + workers*chunksPerWorker - 1) / (workers * chunksPerWorker)
	if chunk < minChunk {
		chunk = minChunk
	}
	chunk = (chunk + blockSize - 1) / blockSize * blockSize
	ranges := make([]pairRange, 0, (n+chunk-1)/chunk)
	for lo := 0; lo < n; lo += chunk {
		ranges = append(ranges, pairRange{lo: lo, hi: min(lo+chunk, n)})
	}
	return ranges
}

// runShards drains the range queue with `workers` goroutines, calling
// fn(i, ranges[i]) for each chunk. Workers stop picking up new chunks
// once ctx is cancelled; in-flight chunks run to completion.
func runShards(ctx context.Context, workers int, ranges []pairRange, fn func(i int, rg pairRange)) {
	workers = min(workers, len(ranges))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(ranges) || ctx.Err() != nil {
					return
				}
				fn(i, ranges[i])
			}
		}()
	}
	wg.Wait()
}

// runSharded is the shard driver behind MatchParallelCtx and
// MatchStateParallelCtx: workers (NormalizeWorkers semantics: <= 0
// means GOMAXPROCS) drain the chunkRanges queue, and each chunk's
// blocks are evaluated in place into st (nil for a marks-only run) and
// matched on a shard matcher that shares m's compiled function, pairs
// and memo and keeps its own Stats, scratch and value-cache map. Chunks
// are whole batch blocks, so workers write disjoint words of every
// bitmap and disjoint slots of every memo row, and nothing is merged
// after the join: the chunks' Stats are added to m.Stats once every
// chunk is done.
//
// ctx is checked between chunks. On cancellation runSharded returns
// ctx's error and adds no Stats; st and matched are then partial and
// must be dropped. The memo keeps every value computed by the chunks
// that ran before the cancel — each one exact, so later runs and
// incremental operations read them as hits.
func (m *Matcher) runSharded(ctx context.Context, workers int, st *MatchState, matched *bitmap.Bits) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	workers = NormalizeWorkers(workers)
	// Bind before fan-out: the workers then only read profiles.
	m.C.BindRuleProfiles()
	ranges := chunkRanges(len(m.Pairs), workers, m.blockSize())
	stats := make([]Stats, len(ranges))
	runShards(ctx, workers, ranges, func(i int, rg pairRange) {
		sm := &Matcher{
			C:               m.C,
			Pairs:           m.Pairs,
			Memo:            m.Memo,
			CheckCacheFirst: m.CheckCacheFirst,
			ValueCache:      m.ValueCache,
			BlockSize:       m.BlockSize,
		}
		sm.batch().run(st, matched, rg.lo, rg.hi)
		stats[i] = sm.Stats
	})
	if err := ctx.Err(); err != nil {
		return err
	}
	for _, s := range stats {
		m.Stats.Add(s)
	}
	return nil
}

// MatchParallelCtx evaluates the function over the pairs with early
// exit and dynamic memoing on `workers` shard workers (NormalizeWorkers
// semantics), returning only the match marks — the cheapest full run
// when the materialized state is not needed (batch matching). Each
// block applies check-cache-first as configured.
//
// The Compiled function must not be mutated during the call. On return
// the matcher's Memo holds every value the workers computed and its
// Stats their aggregate work. On cancellation it returns ctx's error
// and leaves Stats as they were; the memo may keep the exact values
// computed by chunks that ran before the cancel.
func (m *Matcher) MatchParallelCtx(ctx context.Context, workers int) (*bitmap.Bits, error) {
	matched := bitmap.New(len(m.Pairs))
	if err := m.runSharded(ctx, workers, nil, matched); err != nil {
		return nil, err
	}
	return matched, nil
}

// MatchStateParallelCtx is the materializing run on `workers` shard
// workers: every chunk writes its blocks straight into one full
// MatchState. The result feeds incremental sessions. Predicates are
// evaluated in their static order (check-cache-first is suspended for
// the run: its order depends on memo history, and so would the
// recorded exit points), so the state is byte-identical to a
// static-order scalar Match for every worker count and block size.
//
// The workers read and write the matcher's memo in place, so a warm
// memo makes re-runs cheap. On cancellation it returns ctx's error and
// no state; Stats are left as they were, so an interactive session
// that timed out mid-run keeps its previous state and stays valid. The
// memo may keep the exact values computed by chunks that ran before
// the cancel.
func (m *Matcher) MatchStateParallelCtx(ctx context.Context, workers int) (*MatchState, error) {
	st := NewMatchState(len(m.Pairs), m.C.Rules)
	if err := m.runSharded(ctx, workers, st, st.Matched); err != nil {
		return nil, err
	}
	return st, nil
}
