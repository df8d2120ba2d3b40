package main

import (
	"math"
	"runtime"
	"sort"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation
// between order statistics; xs need not be sorted. NaN when empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if math.IsInf(s[hi], 1) || lo == hi {
		return s[hi]
	}
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// recorder collects latency samples (ms) by class and counts attempts
// and failures by op kind. A failed request is recorded as +Inf, so it
// misses every latency limit.
type recorder struct {
	lat       map[string][]float64
	attempted map[string]int
	failed    map[string]int
	// busy is the timed phase's wall time spent in requests and
	// follower waits — the denominator of ops_per_s. The client's own
	// decoding and checking happen outside it.
	busy      time.Duration
	requests  int
	respBytes int64 // response bodies drained, for resp_kb
	notes     []string
}

func newRecorder() *recorder {
	return &recorder{lat: map[string][]float64{}, attempted: map[string]int{}, failed: map[string]int{}}
}

func (r *recorder) add(class string, d time.Duration) {
	r.lat[class] = append(r.lat[class], ms(d))
}

// request accounts one client request of kind (per-op-kind name) in
// the latency classes given. A non-nil err (transport error, non-2xx
// status or a failed check of the decoded body) marks it failed.
func (r *recorder) request(kind string, d time.Duration, err error, classes ...string) {
	r.attempted[kind]++
	r.requests++
	r.busy += d
	for _, c := range classes {
		if err != nil {
			r.lat[c] = append(r.lat[c], math.Inf(1))
		} else {
			r.add(c, d)
		}
	}
	if err != nil {
		r.failed[kind]++
		if len(r.notes) < 20 {
			r.notes = append(r.notes, kind+": "+err.Error())
		}
	}
}

func (r *recorder) totals() (attempted, failed int) {
	for _, n := range r.attempted {
		attempted += n
	}
	for _, n := range r.failed {
		failed += n
	}
	return attempted, failed
}

// liveHeap forces a collection and returns the live heap in bytes.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}
