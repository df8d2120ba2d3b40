package persist

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"rulematch/internal/bitmap"
	"rulematch/internal/block"
	"rulematch/internal/core"
	"rulematch/internal/incremental"
	"rulematch/internal/rule"
	"rulematch/internal/sim"
	"rulematch/internal/table"
)

// dataStateSession is buildSession's function over city-blocked pairs,
// after an append on each side and a delete, so its snapshot carries
// every section: extras, tombstones and a block spec.
func dataStateSession(t *testing.T) *incremental.Session {
	t.Helper()
	a, b, _ := buildTables(t)
	blk := block.AttrEquivalence{Attr: "city"}
	pairs, err := blk.Pairs(a, b)
	if err != nil {
		t.Fatal(err)
	}
	f, err := rule.ParseFunction(sessionFunc)
	if err != nil {
		t.Fatal(err)
	}
	c, err := core.Compile(f, sim.Standard(), a, b)
	if err != nil {
		t.Fatal(err)
	}
	s := incremental.NewSession(c, pairs)
	s.Blocker = blk
	mustRun(t, s)
	if err := s.AddRecords(
		[]table.Record{{ID: "a4", Values: []string{"wei chen", "milwaukee"}}},
		[]table.Record{{ID: "b4", Values: []string{"wei chen jr", "milwaukee"}}},
	); err != nil {
		t.Fatal(err)
	}
	if err := s.DeleteRecords([]string{"a1"}, nil); err != nil {
		t.Fatal(err)
	}
	return s
}

// loadSeed is one FuzzLoad seed and what Load must make of it: accept
// it (want empty) or refuse it with an error containing want.
type loadSeed struct {
	name, want string
	data       []byte
}

// fuzzLoadSeeds builds FuzzLoad's seed corpus from the live encoder.
// Every forged seed carries a valid checksum, so the payload decoder —
// not the frame — must refuse it.
func fuzzLoadSeeds(t *testing.T) []loadSeed {
	real := encodeFramed(t, mustSnapshot(t, dataStateSession(t)))
	payload := real[headerSize:]
	// start[s] is the first payload offset whose cut fails in section s.
	start := map[string]int{}
	for k := 0; k < len(payload); k++ {
		_, err := decodePayload(payload[:k])
		if err == nil {
			t.Fatalf("payload cut at %d decoded", k)
		}
		sec := strings.SplitN(strings.TrimPrefix(err.Error(), "persist: corrupt snapshot: "), ":", 2)[0]
		if _, ok := start[sec]; !ok {
			start[sec] = k
		}
	}
	seeds := []loadSeed{{name: "real", data: real}}
	sections := []string{"names", "header", "pairs", "bitmaps", "memo", "data state"}
	for i, sec := range sections {
		lo, ok := start[sec]
		if !ok {
			t.Fatalf("no cut fails in section %q (starts %v)", sec, start)
		}
		hi := len(payload)
		if i+1 < len(sections) {
			hi = start[sections[i+1]]
		}
		seeds = append(seeds, loadSeed{"cut-" + strings.ReplaceAll(sec, " ", "-"), sec + ":", encodeRaw(t, payload[:(lo+hi)/2])})
	}

	// The pair count claims 2^40 pairs.
	at := start["pairs"]
	n := len(mustSnapshot(t, dataStateSession(t)).Pairs)
	huge := slices.Concat(payload[:at], binary.AppendUvarint(nil, 1<<40), payload[at+uvarintLen(uint64(n)):])
	seeds = append(seeds, loadSeed{"counts-exceed-bytes", "pairs in", encodeRaw(t, huge)})

	forge := func(name, want string, mutate func(*snapshot)) {
		s, _, _ := buildSession(t)
		snap := mustSnapshot(t, s)
		mutate(snap)
		seeds = append(seeds, loadSeed{name, want, encodeFramed(t, snap)})
	}
	forge("bit-past-n", "set bit past length", func(snap *snapshot) {
		b := bitmap.New(len(snap.Pairs) + 100)
		b.Set(len(snap.Pairs) + 50)
		snap.Matched = b
	})
	forge("run-past-n", "words past the", func(snap *snapshot) {
		b := bitmap.New(len(snap.Pairs) + 6400)
		b.SetAll()
		snap.Matched = b
	})
	forge("duplicate-row", "duplicate memo row", func(snap *snapshot) {
		snap.Memo = slices.Insert(snap.Memo, 1, snap.Memo[0])
	})
	// trigram takes a few distinct values over most pairs, so its row is coded on a small dictionary with one-byte
	// codes; its last code is the byte before the data-state flag.
	s, _, _ := buildSession(t)
	snap := mustSnapshot(t, s)
	snap.Memo = slices.DeleteFunc(snap.Memo, func(r memoRow) bool { return r.Feature.Sim != "trigram" })
	distinct := map[float64]bool{}
	for pi := snap.Memo[0].Present.NextSet(0); pi >= 0; pi = snap.Memo[0].Present.NextSet(pi + 1) {
		distinct[snap.Memo[0].Vals[pi]] = true
	}
	if d, m := len(distinct), snap.Memo[0].Present.Count(); d < 2 || d > 255 || dictSize(d, m) >= 1+8*m {
		t.Fatalf("trigram row holds %d distinct values in %d: not coded on one-byte codes", d, m)
	}
	code := encodeFramed(t, snap)
	code[len(code)-2] = byte(len(distinct))
	seeds = append(seeds, loadSeed{"code-past-dict", fmt.Sprintf("outside a %d-value dictionary", len(distinct)), encodeRaw(t, code[headerSize:])})
	return seeds
}

func mustSnapshot(t testing.TB, s *incremental.Session) *snapshot {
	t.Helper()
	snap, err := buildSnapshot(s, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// encodeRaw frames an arbitrary payload with a valid length and CRC.
func encodeRaw(t testing.TB, payload []byte) []byte {
	t.Helper()
	data, err := frame(append(make([]byte, headerSize), payload...))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

const loadCorpus = "testdata/fuzz/FuzzLoad"

// TestFuzzLoadSeedCorpus pins FuzzLoad's checked-in corpus to the
// encoder and each seed to its outcome. A seed file that is missing is
// written, so deleting the directory and running this test regenerates
// the corpus after a format change.
func TestFuzzLoadSeedCorpus(t *testing.T) {
	for _, seed := range fuzzLoadSeeds(t) {
		path := filepath.Join(loadCorpus, seed.name)
		file := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", seed.data)
		switch got, err := os.ReadFile(path); {
		case os.IsNotExist(err):
			if err := os.MkdirAll(loadCorpus, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(file), 0o644); err != nil {
				t.Fatal(err)
			}
			t.Logf("wrote %s", path)
		case err != nil:
			t.Fatal(err)
		case string(got) != file:
			t.Errorf("%s is stale: delete it and rerun this test to regenerate it", path)
		}
		a, b, _ := buildTables(t)
		_, err := Load(bytes.NewReader(seed.data), sim.Standard(), a, b)
		switch {
		case seed.want == "" && err != nil:
			t.Errorf("%s: %v", seed.name, err)
		case seed.want != "" && (err == nil || !strings.Contains(err.Error(), seed.want)):
			t.Errorf("%s: err = %v, want one containing %q", seed.name, err, seed.want)
		}
	}
}

// loadAllocBound is the allocation Load may make for an n-byte input:
// the declared state's cap plus room for the payload buffer, strings,
// records and the compiled function, and a fixed allowance for the
// tables' compile-time indexes.
func loadAllocBound(n int) uint64 { return uint64(maxExpansion+256)*uint64(n) + 4<<20 }

// FuzzLoad feeds Load each input as a snapshot file and, re-framed with
// a valid length and checksum, its bytes after the header, so mutations
// reach the payload decoder instead of failing the checksum. Nothing may
// panic; allocation stays within a fixed multiple of the input; a
// refusal is a persist: error; and an accepted input gives a session
// whose VerifyDeep returns without panicking — it may report forged
// state as inconsistent, since Load does not recompute features.
func FuzzLoad(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		inputs := [][]byte{data}
		if len(data) > headerSize {
			inputs = append(inputs, encodeRaw(t, data[headerSize:]))
		}
		for _, in := range inputs {
			a, b, _ := buildTables(t)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			s, err := Load(bytes.NewReader(in), sim.Standard(), a, b)
			runtime.ReadMemStats(&after)
			if grew := after.TotalAlloc - before.TotalAlloc; grew > loadAllocBound(len(in)) {
				t.Fatalf("Load allocated %d bytes for a %d-byte input", grew, len(in))
			}
			if err != nil {
				if !strings.HasPrefix(err.Error(), "persist: ") {
					t.Fatalf("refusal without a persist: error: %v", err)
				}
				continue
			}
			_ = s.VerifyDeep()
		}
	})
}
