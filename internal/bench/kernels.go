package bench

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"

	"rulematch/internal/sim"
)

// Micro-benchmarks of the similarity kernels: every dictionary-encoded
// profile kernel against its map-profile baseline, and the bit-parallel
// Myers Levenshtein against the rolling-row DP reference. Inputs are
// synthetic product-style values, so the harness needs no prepared task
// and runs in milliseconds.

// KernelResult is one machine-readable micro-benchmark measurement.
type KernelResult struct {
	// Kernel names the similarity kernel (e.g. "jaccard",
	// "levenshtein/64" for the 64-rune edit-distance bucket).
	Kernel string `json:"kernel"`
	// Variant is the implementation measured: "map" / "encoded" for
	// profile kernels, "dp" / "myers" for edit distance.
	Variant string `json:"variant"`
	// NsPerOp is the mean wall time of one profile comparison (or one
	// distance computation) in nanoseconds.
	NsPerOp float64 `json:"ns_per_op"`
	// AllocsPerOp is the mean heap allocations per operation.
	AllocsPerOp float64 `json:"allocs_per_op"`
	// Speedup is baseline-ns / this-variant-ns; set on the non-baseline
	// variant, 0 on the baseline itself.
	Speedup float64 `json:"speedup,omitempty"`
}

// KernelResultsJSON renders results as indented JSON.
func KernelResultsJSON(rs []KernelResult) ([]byte, error) {
	return json.MarshalIndent(rs, "", "  ")
}

// kernelValues builds a deterministic list of product-style attribute
// values with repeated vocabulary (so intersections are non-trivial)
// and varying token counts.
func kernelValues() []string {
	brands := []string{"sony", "dell", "canon", "western digital", "hp", "lenovo"}
	nouns := []string{"laptop", "camera", "portable drive", "lens", "monitor", "dock"}
	codes := []string{"SD-4816K", "WD-1021R", "VN-5653V", "EOS-R5", "ZX81", "MK404"}
	extras := []string{"white", "black", "refurbished", "new", "13in", "2TB"}
	var out []string
	for i, b := range brands {
		for j, n := range nouns {
			v := b + " " + n + " " + codes[(i+j)%len(codes)]
			if (i+j)%2 == 0 {
				v += " " + extras[(i*j)%len(extras)]
			}
			out = append(out, v)
		}
	}
	return out
}

// accented rewrites ASCII vowels as accented letters, so every token
// that has one becomes multi-byte: the non-ASCII counterpart of
// kernelValues, with the same token structure.
var accented = strings.NewReplacer("a", "á", "e", "é", "i", "í", "o", "ö", "u", "ü")

// nsPerOp times fn by doubling the iteration count until the run is
// long enough to trust the mean.
func nsPerOp(fn func()) float64 {
	fn() // warm up caches and memos
	for n := 1; ; n *= 2 {
		start := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		d := time.Since(start)
		if d >= 10*time.Millisecond || n >= 1<<22 {
			return float64(d.Nanoseconds()) / float64(n)
		}
	}
}

// editPair builds an n-rune string and a copy with every fourth rune
// substituted — a realistic ~25% edit load.
func editPair(n int) (string, string) {
	const alpha = "abcdefghijklmnopqrstuvwxyz0123456789"
	a := make([]rune, n)
	b := make([]rune, n)
	for i := 0; i < n; i++ {
		a[i] = rune(alpha[(i*7)%len(alpha)])
		if i%4 == 3 {
			b[i] = rune(alpha[(i*11+5)%len(alpha)])
		} else {
			b[i] = a[i]
		}
	}
	return string(a), string(b)
}

// KernelBench measures every dictionary-encoded profile kernel against
// its map-profile baseline, and the Myers edit-distance kernels against
// the DP reference, on synthetic product-style values.
func KernelBench() []KernelResult {
	vals := kernelValues()
	corpus := sim.NewCorpus(nil)
	corpus.AddAll(vals)
	type profileKernel struct {
		name string
		f    sim.DictProfiler
		vals []string
	}
	var kernels []profileKernel
	for _, f := range []sim.DictProfiler{
		sim.Jaccard{Label: "jaccard"},
		sim.Dice{Label: "dice"},
		sim.Overlap{Label: "overlap"},
		sim.Cosine{Label: "cosine"},
		sim.Trigram{},
		sim.Soundex{},
		sim.TFIDF{Corpus: corpus},
		sim.SoftTFIDF{Corpus: corpus},
	} {
		kernels = append(kernels, profileKernel{f.Name(), f, vals})
	}
	// Soft TF-IDF again over multi-byte tokens: its Jaro-Winkler
	// kernel takes runes, so ASCII alone would not show that path.
	wide := make([]string, len(vals))
	for i, v := range vals {
		wide[i] = accented.Replace(v)
	}
	wideCorpus := sim.NewCorpus(nil)
	wideCorpus.AddAll(wide)
	kernels = append(kernels, profileKernel{"soft_tf_idf/non_ascii", sim.SoftTFIDF{Corpus: wideCorpus}, wide})

	var out []KernelResult
	measure := func(kernel, variant string, baseline float64, fn func()) float64 {
		ns := nsPerOp(fn)
		r := KernelResult{
			Kernel:      kernel,
			Variant:     variant,
			NsPerOp:     ns,
			AllocsPerOp: testing.AllocsPerRun(100, fn),
		}
		if baseline > 0 && ns > 0 {
			r.Speedup = baseline / ns
		}
		out = append(out, r)
		return ns
	}

	for _, k := range kernels {
		f, vals := k.f, k.vals
		db := sim.NewDictBuilder()
		for _, v := range vals {
			db.Add(f.DictTokens(v))
		}
		d := db.Build()
		mapped := make([]any, len(vals))
		encoded := make([]any, len(vals))
		for i, v := range vals {
			mapped[i] = f.Profile(v)
			encoded[i] = f.ProfileDict(v, d)
		}
		// Cycle through all cross pairs so both variants average the
		// same comparison mix.
		var i, j int
		next := func() (int, int) {
			i++
			if i == len(vals) {
				i = 0
				j = (j + 1) % len(vals)
			}
			return i, j
		}
		base := measure(k.name, "map", 0, func() {
			a, b := next()
			f.SimProfiles(mapped[a], mapped[b])
		})
		i, j = 0, 0
		measure(k.name, "encoded", base, func() {
			a, b := next()
			f.SimProfiles(encoded[a], encoded[b])
		})
	}

	for _, n := range []int{8, 16, 32, 64, 128, 256} {
		a, b := editPair(n)
		kernel := fmt.Sprintf("levenshtein/%d", n)
		base := measure(kernel, "dp", 0, func() { sim.EditDistanceDP(a, b) })
		measure(kernel, "myers", base, func() { sim.EditDistanceMyers(a, b) })
	}
	return out
}

// AblationKernels renders KernelBench as a printable table alongside
// the raw results (for the machine-readable JSON artifact).
func AblationKernels() (*Table, []KernelResult) {
	results := KernelBench()
	out := &Table{
		Title:  "Ablation: similarity kernels (map vs dictionary-encoded, DP vs Myers)",
		Header: []string{"Kernel", "variant", "ns/op", "allocs/op", "speedup"},
	}
	for _, r := range results {
		speedup := "-"
		if r.Speedup > 0 {
			speedup = fmt.Sprintf("%.2fx", r.Speedup)
		}
		out.AddRow(r.Kernel, r.Variant, fmt.Sprintf("%.1f", r.NsPerOp),
			fmt.Sprintf("%.1f", r.AllocsPerOp), speedup)
	}
	out.Notes = append(out.Notes,
		"profile kernels compare prebuilt profiles (per-record profile construction is amortized by the cache)",
		"levenshtein/N compares N-rune strings with ~25% substitutions; the production dispatcher picks the kernel by length",
	)
	// Flag regressions loudly in the text artifact.
	var slow []string
	for _, r := range results {
		if r.Variant == "encoded" && r.Speedup > 0 && r.Speedup < 1 {
			slow = append(slow, r.Kernel)
		}
	}
	if len(slow) > 0 {
		out.Notes = append(out.Notes, "REGRESSION: encoded slower than map for "+strings.Join(slow, ", "))
	}
	return out, results
}
