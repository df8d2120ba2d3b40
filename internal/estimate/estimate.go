// Package estimate derives the cost-model inputs from a small random
// sample of the candidate pairs (paper §4.4.2, §5.5, §7.5): per-feature
// computation cost, per-predicate selectivity, and the memo lookup cost
// δ. The paper found a 1% sample sufficient.
package estimate

import (
	"math/rand"
	"time"

	"rulematch/internal/core"
	"rulematch/internal/table"
)

// DefaultFraction is the sampling fraction the paper uses (1%).
const DefaultFraction = 0.01

// minTiming is the minimum accumulated duration per feature before we
// trust the wall-clock cost estimate; cheap features are re-looped.
const minTiming = 200 * time.Microsecond

// Estimates holds measured cost-model inputs. Feature values over the
// sample are retained so selectivities of arbitrary predicate
// conjunctions can be computed on demand.
type Estimates struct {
	// Delta is the memo lookup cost in seconds.
	Delta float64

	samplePairs []table.Pair
	sampleIdx   []int // indexes of the sample pairs in the full pair list
	featCost    map[string]float64
	featVals    map[string][]float64
}

// SamplePairs draws max(1, frac*len(pairs)) distinct pairs without
// replacement, deterministically for a given seed, returning both the
// pairs and their indexes in the input slice.
func SamplePairs(pairs []table.Pair, frac float64, seed int64) ([]table.Pair, []int) {
	n := int(frac * float64(len(pairs)))
	if n < 1 {
		n = 1
	}
	if n > len(pairs) {
		n = len(pairs)
	}
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(len(pairs))[:n]
	sample := make([]table.Pair, n)
	for i, pi := range perm {
		sample[i] = pairs[pi]
	}
	return sample, perm
}

// New measures cost and selectivity inputs for every feature currently
// bound in c, over a frac sample of pairs.
func New(c *core.Compiled, pairs []table.Pair, frac float64, seed int64) *Estimates {
	sample, idx := SamplePairs(pairs, frac, seed)
	e := &Estimates{
		samplePairs: sample,
		sampleIdx:   idx,
		featCost:    make(map[string]float64),
		featVals:    make(map[string][]float64),
		Delta:       measureDelta(),
	}
	for fi := range c.Features {
		e.Ensure(c, fi)
	}
	return e
}

// FromValues constructs deterministic estimates for tests: vals maps
// feature key to sample values, costs maps feature key to per-eval cost.
func FromValues(vals map[string][]float64, costs map[string]float64, delta float64) *Estimates {
	e := &Estimates{
		featCost: make(map[string]float64, len(costs)),
		featVals: make(map[string][]float64, len(vals)),
		Delta:    delta,
	}
	for k, v := range vals {
		e.featVals[k] = append([]float64(nil), v...)
	}
	for k, c := range costs {
		e.featCost[k] = c
	}
	return e
}

// Ensure measures feature fi of c if it has not been measured yet; call
// it after binding new features incrementally.
func (e *Estimates) Ensure(c *core.Compiled, fi int) {
	key := c.Features[fi].Key
	if _, done := e.featVals[key]; done {
		return
	}
	vals := make([]float64, len(e.samplePairs))
	// A feature's first compute binds its cached profiles over every
	// record (core.Compiled's profile cache); that one-off build is not
	// a per-evaluation cost, so it happens before the clock starts.
	if len(e.samplePairs) > 0 {
		c.ComputeFeature(fi, e.samplePairs[0])
	}
	reps := 1
	var elapsed time.Duration
	for {
		start := time.Now()
		for r := 0; r < reps; r++ {
			for i, p := range e.samplePairs {
				vals[i] = c.ComputeFeature(fi, p)
			}
		}
		elapsed = time.Since(start)
		if elapsed >= minTiming || reps >= 1<<12 {
			break
		}
		reps *= 4
	}
	n := reps * len(e.samplePairs)
	if n == 0 {
		n = 1
	}
	e.featCost[key] = elapsed.Seconds() / float64(n)
	e.featVals[key] = vals
}

// SampleSize returns the number of sampled pairs.
func (e *Estimates) SampleSize() int { return len(e.samplePairs) }

// SampleIndexes returns the positions of the sample pairs within the
// full candidate pair list.
func (e *Estimates) SampleIndexes() []int { return e.sampleIdx }

// FeatureCost returns the measured per-evaluation cost (seconds) of the
// feature with the given key. Unmeasured features get the mean measured
// cost (or 1 if nothing is measured) so callers degrade gracefully.
func (e *Estimates) FeatureCost(key string) float64 {
	if c, ok := e.featCost[key]; ok {
		return c
	}
	if len(e.featCost) == 0 {
		return 1
	}
	var sum float64
	for _, c := range e.featCost {
		sum += c
	}
	return sum / float64(len(e.featCost))
}

// HasFeature reports whether the feature was measured.
func (e *Estimates) HasFeature(key string) bool {
	_, ok := e.featVals[key]
	return ok
}

// FeatureValues returns the sampled values of the feature (nil if
// unmeasured). The slice must not be modified.
func (e *Estimates) FeatureValues(key string) []float64 { return e.featVals[key] }

// PredSel returns the fraction of sample pairs satisfying the predicate
// (0.5 when the feature is unmeasured).
func (e *Estimates) PredSel(featKey string, op interface{ Compare(v, t float64) bool }, threshold float64) float64 {
	vals, ok := e.featVals[featKey]
	if !ok || len(vals) == 0 {
		return 0.5
	}
	pass := 0
	for _, v := range vals {
		if op.Compare(v, threshold) {
			pass++
		}
	}
	return float64(pass) / float64(len(vals))
}

// ConjSel returns the empirical selectivity of a predicate conjunction
// over the sample: the fraction of sample pairs satisfying every
// predicate. Feature keys are resolved via keyOf. Unmeasured features
// contribute an independent factor of 0.5.
func (e *Estimates) ConjSel(preds []core.CompiledPred, keyOf func(fi int) string) float64 {
	if len(preds) == 0 {
		return 1
	}
	n := -1
	for _, p := range preds {
		if vals, ok := e.featVals[keyOf(p.Feat)]; ok {
			n = len(vals)
			break
		}
	}
	if n <= 0 {
		// Nothing measured: independence fallback.
		sel := 1.0
		for range preds {
			sel *= 0.5
		}
		return sel
	}
	pass := 0
	penalty := 1.0
	for i := 0; i < n; i++ {
		ok := true
		for _, p := range preds {
			vals, have := e.featVals[keyOf(p.Feat)]
			if !have {
				continue
			}
			if !p.Eval(vals[i]) {
				ok = false
				break
			}
		}
		if ok {
			pass++
		}
	}
	for _, p := range preds {
		if _, have := e.featVals[keyOf(p.Feat)]; !have {
			penalty *= 0.5
		}
	}
	return penalty * float64(pass) / float64(n)
}

// measureDelta times memo lookups to estimate δ.
func measureDelta() float64 {
	m := core.NewArrayMemo(1024)
	for i := 0; i < 1024; i++ {
		m.Put(0, i, float64(i))
	}
	const rounds = 1 << 16
	start := time.Now()
	var sink float64
	for r := 0; r < rounds; r++ {
		v, _ := m.Get(0, r&1023)
		sink += v
	}
	el := time.Since(start).Seconds() / rounds
	_ = sink
	if el <= 0 {
		el = 1e-9
	}
	return el
}
