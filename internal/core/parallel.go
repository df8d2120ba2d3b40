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

func (r pairRange) len() int { return r.hi - r.lo }

// chunkRanges splits n pairs into contiguous work-queue chunks for the
// shard driver: several chunks per worker so cancellation is prompt and
// stragglers rebalance, but no chunk smaller than a floor so per-chunk
// bookkeeping — shard state, overlay memo — stays negligible. Chunk
// sizes are multiples of blockSize (the batch engine's block size,
// itself a multiple of 64), so batch blocks start at the same pair
// indices for every worker count as in one whole-range run — with
// check-cache-first, the per-block predicate order and with it every
// Stats counter of a marks-only run is independent of the worker
// count — and every stitch is whole-word.
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
// once ctx is cancelled; in-flight chunks run to completion (their
// results are discarded by the caller on cancellation).
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

// shardMatcher returns a Matcher that evaluates the parent's compiled
// function over the pair range rg with private mutable state: its own
// value-cache map, and — when the parent memoizes — an overlayMemo that
// reads the parent's warm memo at the range offset and writes to a
// private shard store. The compiled function and profile cache are
// shared read-only.
func (m *Matcher) shardMatcher(rg pairRange) *Matcher {
	sm := &Matcher{
		C:               m.C,
		Pairs:           m.Pairs[rg.lo:rg.hi],
		CheckCacheFirst: m.CheckCacheFirst,
		ValueCache:      m.ValueCache,
		BlockSize:       m.BlockSize,
	}
	if m.Memo != nil {
		sm.Memo = newOverlayMemo(m.Memo, rg.lo, rg.len())
	}
	return sm
}

// shardOut carries one chunk's output back to the stitching loop.
type shardOut[T any] struct {
	v     T
	memo  *ArrayMemo
	stats Stats
}

// runSharded is the shard driver behind every sharded method: workers
// (NormalizeWorkers semantics: <= 0 means GOMAXPROCS) drain the
// chunkRanges queue, eval runs each chunk on a shardMatcher, and
// once every chunk is done stitch receives each chunk's value at its
// pair offset while the chunk's overlay memo is absorbed into m.Memo
// and its Stats are added to m.Stats, in chunk order. Overlay reads of
// the shared base are safe because nothing writes it until the workers
// have joined.
//
// ctx is checked between chunks. On cancellation runSharded returns
// ctx's error without stitching, absorbing or counting anything, so m
// is exactly as before the call.
func runSharded[T any](ctx context.Context, m *Matcher, workers int, eval func(sm *Matcher) T, stitch func(v T, lo int)) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	workers = NormalizeWorkers(workers)
	ranges := chunkRanges(len(m.Pairs), workers, m.blockSize())
	outs := make([]shardOut[T], len(ranges))
	runShards(ctx, workers, ranges, func(i int, rg pairRange) {
		sm := m.shardMatcher(rg)
		outs[i].v = eval(sm)
		outs[i].stats = sm.Stats
		if om, ok := sm.Memo.(*overlayMemo); ok {
			outs[i].memo = om.over
		}
	})
	if err := ctx.Err(); err != nil {
		return err
	}
	for i, rg := range ranges {
		stitch(outs[i].v, rg.lo)
		if outs[i].memo != nil {
			absorbMemoRange(m.Memo, outs[i].memo, rg.lo)
		}
		m.Stats.Add(outs[i].stats)
	}
	return nil
}

// MatchParallelCtx evaluates the function over the pairs with early
// exit and dynamic memoing on `workers` shard workers (NormalizeWorkers
// semantics), returning only the match marks — the cheapest full run
// when the materialized state is not needed (batch matching). Each
// chunk runs MatchBits, so check-cache-first applies as configured.
//
// The Compiled function must not be mutated during the call. On
// return the matcher's Memo has absorbed every value the workers
// computed and its Stats hold their aggregate work; on cancellation
// it returns ctx's error and the matcher is untouched.
func (m *Matcher) MatchParallelCtx(ctx context.Context, workers int) (*bitmap.Bits, error) {
	matched := bitmap.New(len(m.Pairs))
	err := runSharded(ctx, m, workers, (*Matcher).MatchBits, func(bits *bitmap.Bits, lo int) {
		matched.OrRange(bits, lo)
	})
	if err != nil {
		return nil, err
	}
	return matched, nil
}

// MatchStateParallelCtx is the materializing run on `workers` shard
// workers: each chunk is evaluated into a shard of MatchState, and the
// shards are stitched into one full state with word-level bitmap
// merges. The result feeds incremental sessions. Predicates are
// evaluated in their static order (check-cache-first is suspended for
// the run: its order depends on memo history, and so would the
// recorded exit points), so the state is byte-identical to a
// static-order scalar Match for every worker count and block size.
//
// A warm memo is read (not written) by the workers, making re-runs
// cheap; on return it has absorbed every shard memo. On cancellation
// it returns ctx's error and the matcher is left exactly as before the
// call — no shard memo is absorbed, no stats are added — so an
// interactive session that timed out mid-run stays valid.
func (m *Matcher) MatchStateParallelCtx(ctx context.Context, workers int) (*MatchState, error) {
	st := NewMatchState(len(m.Pairs), m.C.Rules)
	err := runSharded(ctx, m, workers, func(sm *Matcher) *MatchState {
		sm.CheckCacheFirst = false
		return sm.MatchState()
	}, func(shard *MatchState, lo int) {
		st.MergeAt(shard, lo)
	})
	if err != nil {
		return nil, err
	}
	return st, nil
}
