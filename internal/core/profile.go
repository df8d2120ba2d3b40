package core

import (
	"strconv"

	"rulematch/internal/sim"
)

// Profile caching: similarity functions implementing sim.Profiler can
// precompute per-record profiles (token sets, count vectors, TF-IDF
// weights). A record participates in many candidate pairs, so caching
// its profile amortizes tokenization and vector construction across all
// of them. Profiles are built eagerly when the cache is enabled (and
// for features bound afterwards), so matching — including the sharded
// methods — only reads them.
//
// Similarities that additionally implement sim.DictProfiler and have an
// ID emitter (sim.EmitterFor) are cached in dictionary-encoded form: a
// per-column-pair token dictionary interns tokens to dense uint32 IDs,
// and profiles become sorted integer slices compared by merge
// intersection. The column pair is scanned once by the emitter —
// interning tokens and recording the ID stream — and every record's
// profile is carved out of shared slab arrays. Other profilers
// (MongeElkan) cache map profiles. Encoded profiles, map profiles and
// raw strings all score bit-identically, so the profile cache never
// changes a match result.
//
// Two levels of sharing cut the build cost and footprint:
//
//   - Dictionaries are shared across features whose profiles draw from
//     the same token space (sim.ProfileSpec.Space) over the same column
//     pair — e.g. whitespace-tokenized Jaccard, Cosine and TF-IDF over
//     name×name all use one dictionary.
//   - Whole profile sets are shared across features with the same
//     profile kind (sim.ProfileSpec.Kind) over the same column pair —
//     e.g. Jaccard and Dice both cache one sorted-ID set per record,
//     and TF-IDF and Soft TF-IDF share their weight vectors.

// featureProfiles holds the cached per-record profiles of one bound
// feature: [0] indexes table A records, [1] table B records. nil when
// the feature's similarity does not implement sim.Profiler.
type featureProfiles struct {
	fn   sim.Profiler
	side [2][]any
	// shareKey is non-empty for dictionary-encoded profiles; features
	// with equal shareKey alias the same side slices, and ProfileBytes
	// counts each shared set once.
	shareKey string
	// dict is the sealed dictionary the profiles are encoded against;
	// nil for map profiles.
	dict *sim.Dict
}

// EnableProfileCache precomputes per-record profiles for every bound
// feature whose similarity supports it. Features bound later (e.g. by
// incremental edits) are profiled at bind time. Idempotent.
func (c *Compiled) EnableProfileCache() {
	if c.profilesOn {
		return
	}
	c.profilesOn = true
	for fi := range c.Features {
		c.buildProfiles(fi)
	}
}

// ProfileCacheEnabled reports whether profile caching is on.
func (c *Compiled) ProfileCacheEnabled() bool { return c.profilesOn }

// buildProfiles computes the profiles of feature fi for every record of
// both tables, if its similarity supports profiling.
func (c *Compiled) buildProfiles(fi int) {
	for len(c.profiles) <= fi {
		c.profiles = append(c.profiles, nil)
	}
	f := &c.Features[fi]
	pr, ok := f.Fn.(sim.Profiler)
	if !ok {
		return
	}
	if dp, ok := f.Fn.(sim.DictProfiler); ok {
		if fp := c.buildDictProfiles(f, dp); fp != nil {
			c.profiles[fi] = fp
			return
		}
	}
	fp := &featureProfiles{fn: pr}
	fp.side[0] = make([]any, c.A.Len())
	for i := range c.A.Records {
		fp.side[0][i] = pr.Profile(c.A.Value(i, f.ColA))
	}
	fp.side[1] = make([]any, c.B.Len())
	for j := range c.B.Records {
		fp.side[1][j] = pr.Profile(c.B.Value(j, f.ColB))
	}
	c.profiles[fi] = fp
}

// buildDictProfiles builds (or reuses) the dictionary-encoded profile
// set of one feature through the single-pass ID stream. The dictionary
// is looked up by token space and column pair; the profile set by
// profile kind and column pair. Returns nil when the similarity has no
// ID emitter or its kind no stream encoding; the caller then caches map
// profiles.
func (c *Compiled) buildDictProfiles(f *BoundFeature, dp sim.DictProfiler) *featureProfiles {
	em, ok := sim.EmitterFor(dp)
	if !ok {
		return nil
	}
	spec := dp.ProfileSpec()
	colKey := strconv.Itoa(f.ColA) + "|" + strconv.Itoa(f.ColB)
	dictKey := spec.Space + "|" + colKey
	fp := &featureProfiles{fn: dp, shareKey: spec.Kind + "|" + colKey}
	if sides, ok := c.sharedSides[fp.shareKey]; ok {
		fp.side = *sides
		fp.dict = c.dicts[dictKey]
		return fp
	}
	if !c.bindStreamProfiles(fp, dp, em, dictKey, f.ColA, f.ColB) {
		return nil
	}
	sides := fp.side
	c.sharedSides[fp.shareKey] = &sides
	return fp
}

// bindStreamProfiles encodes one share group through the single-pass
// token stream: the column pair is scanned once by the ID emitter
// (interning into a fresh dictionary, or re-emitting against an
// already-sealed one), the stream is cached per dictionary key for
// later kinds over the same token space, and every record's profile is
// carved out of shared slabs. Reports false when the kind has no
// stream encoding.
func (c *Compiled) bindStreamProfiles(fp *featureProfiles, dp sim.DictProfiler, em sim.IDEmitter, dictKey string, colA, colB int) bool {
	ts := c.streams[dictKey]
	if ts == nil {
		if d, ok := c.dicts[dictKey]; ok {
			ts = c.emitSealedStream(em, d, colA, colB)
			if ts == nil {
				return false
			}
		} else {
			sb := sim.NewStreamBuilder(em)
			for i := range c.A.Records {
				sb.AddValue(c.A.Value(i, colA))
			}
			for j := range c.B.Records {
				sb.AddValue(c.B.Value(j, colB))
			}
			ts = sb.Seal()
			c.dicts[dictKey] = ts.Dict
		}
		c.streams[dictKey] = ts
	}
	all, ok := sim.ProfilesFromStream(dp, ts)
	if !ok {
		return false
	}
	fp.dict = ts.Dict
	nA := c.A.Len()
	// Full-capacity slices: a later ExtendRecords append reallocates
	// instead of writing side B's profiles over side A's tail.
	fp.side[0] = all[:nA:nA]
	fp.side[1] = all[nA:]
	return true
}

// emitSealedStream re-emits both columns against an already-sealed
// dictionary, yielding rank IDs directly. A coverage miss (nil return)
// cannot happen when the dictionary was built over the same columns;
// the nil path is defensive.
func (c *Compiled) emitSealedStream(em sim.IDEmitter, d *sim.Dict, colA, colB int) *sim.TokenStream {
	nA, nB := c.A.Len(), c.B.Len()
	ids := make([]uint32, 0, 4*(nA+nB))
	offs := make([]int32, 1, nA+nB+1)
	var sc sim.TokScratch
	add := func(s string) bool {
		var ok bool
		ids, ok = em.AppendTokenIDs(ids, s, d, &sc)
		if !ok {
			return false
		}
		offs = append(offs, int32(len(ids)))
		return true
	}
	for i := 0; i < nA; i++ {
		if !add(c.A.Value(i, colA)) {
			return nil
		}
	}
	for j := 0; j < nB; j++ {
		if !add(c.B.Value(j, colB)) {
			return nil
		}
	}
	return &sim.TokenStream{Dict: d, IDs: ids, Offs: offs}
}

// ExtendRecords brings the profile cache in sync with tables that have
// grown since the profiles were built. Map profiles append the new
// records' profiles in place. Dictionary-encoded profiles emit the new
// records against the sealed dictionary: if it covers every token the
// new profiles are append-encoded against it; if not the dictionary is
// rebuilt over the full columns and every share group drawing on it is
// re-encoded (rank-ordered IDs shift, so old encodings would no longer
// be comparable). Corpus statistics (TF-IDF
// document frequencies) are intentionally left frozen at build time —
// see the incremental package's AddRecords contract.
//
// A no-op when the profile cache is off or the tables have not grown.
func (c *Compiled) ExtendRecords() {
	if !c.profilesOn {
		return
	}
	// Cached streams describe the old table lengths; drop them all. The
	// rebuild path below re-caches fresh full-coverage streams.
	if len(c.streams) != 0 {
		c.streams = make(map[string]*sim.TokenStream)
	}
	rebuilt := make(map[string]bool) // dict keys rebuilt during this call
	doneSets := make(map[string]bool)
	for fi, fp := range c.profiles {
		if fp == nil {
			continue
		}
		f := &c.Features[fi]
		if fp.dict == nil {
			for i := len(fp.side[0]); i < c.A.Len(); i++ {
				fp.side[0] = append(fp.side[0], fp.fn.Profile(c.A.Value(i, f.ColA)))
			}
			for j := len(fp.side[1]); j < c.B.Len(); j++ {
				fp.side[1] = append(fp.side[1], fp.fn.Profile(c.B.Value(j, f.ColB)))
			}
			continue
		}
		dp := fp.fn.(sim.DictProfiler)
		spec := dp.ProfileSpec()
		colKey := strconv.Itoa(f.ColA) + "|" + strconv.Itoa(f.ColB)
		dictKey := spec.Space + "|" + colKey
		if !doneSets[fp.shareKey] {
			doneSets[fp.shareKey] = true
			c.extendSharedSides(fp.shareKey, dictKey, dp, f.ColA, f.ColB, rebuilt)
		}
		// Re-alias: the shared slices (and possibly the dictionary)
		// changed identity above, and fp.side holds copied headers.
		fp.side = *c.sharedSides[fp.shareKey]
		fp.dict = c.dicts[dictKey]
	}
}

// extendSharedSides grows one shared encoded profile set to the current
// table lengths. The new records are emitted against the sealed
// dictionary — the emission itself is the coverage check — and when
// they carry unseen tokens the dictionary is rebuilt over the full
// columns and the set re-encoded from a fresh stream.
func (c *Compiled) extendSharedSides(shareKey, dictKey string, dp sim.DictProfiler, colA, colB int, rebuilt map[string]bool) {
	sides := c.sharedSides[shareKey]
	// Encoded sets are only ever built through the stream, so the
	// emitter exists and the re-encode below cannot fail.
	em, _ := sim.EmitterFor(dp)
	if !rebuilt[dictKey] {
		if c.appendStreamProfiles(sides, em, dp, c.dicts[dictKey], colA, colB, len(sides[0]), len(sides[1])) {
			return
		}
		rebuilt[dictKey] = true
		delete(c.dicts, dictKey)
		delete(c.streams, dictKey)
	}
	var fp featureProfiles
	if !c.bindStreamProfiles(&fp, dp, em, dictKey, colA, colB) {
		panic("core: stream re-encode failed for profile set " + shareKey)
	}
	sides[0], sides[1] = fp.side[0], fp.side[1]
}

// appendStreamProfiles append-encodes records added past (oldA, oldB)
// by emitting their token IDs against the sealed dictionary d. Reports
// false — leaving sides untouched — when a new record carries a token
// outside d (the caller must rebuild) or the kind has no ID encoding.
func (c *Compiled) appendStreamProfiles(sides *[2][]any, em sim.IDEmitter, dp sim.DictProfiler, d *sim.Dict, colA, colB, oldA, oldB int) bool {
	var sc sim.TokScratch
	var ids []uint32
	encode := func(val string) (any, bool) {
		var ok bool
		ids, ok = em.AppendTokenIDs(ids[:0], val, d, &sc)
		if !ok {
			return nil, false
		}
		return sim.ProfileFromIDs(dp, d, ids)
	}
	newA := make([]any, 0, c.A.Len()-oldA)
	for i := oldA; i < c.A.Len(); i++ {
		p, ok := encode(c.A.Value(i, colA))
		if !ok {
			return false
		}
		newA = append(newA, p)
	}
	newB := make([]any, 0, c.B.Len()-oldB)
	for j := oldB; j < c.B.Len(); j++ {
		p, ok := encode(c.B.Value(j, colB))
		if !ok {
			return false
		}
		newB = append(newB, p)
	}
	sides[0] = append(sides[0], newA...)
	sides[1] = append(sides[1], newB...)
	return true
}

// ReleaseRecords drops the cached profiles of records idx of one side
// (0 = table A, 1 = table B) from every profile set — shared encoded
// sets and map-profile sets alike — and drops the cached token
// streams, which still hold those records' token IDs. The caller
// guarantees that no candidate pair references the records any more
// and that their values now read "" (table.ReleaseTombstones), so
// nothing looks the dropped profiles up again, and a later full-column
// scan — a dictionary rebuild, a newly bound feature — encodes the
// empty value for them.
func (c *Compiled) ReleaseRecords(side int, idx []int32) {
	if len(idx) == 0 {
		return
	}
	for _, fp := range c.profiles {
		if fp == nil {
			continue
		}
		// Features of one share group alias the same backing array, so
		// clearing through each of them is idempotent.
		profs := fp.side[side]
		for _, i := range idx {
			profs[i] = nil
		}
	}
	clear(c.streams)
}

// ProfileEntries returns the number of cached per-record profile
// entries across all features (shared sets counted per feature).
// Released records (ReleaseRecords) hold none.
func (c *Compiled) ProfileEntries() int {
	n := 0
	for _, fp := range c.profiles {
		if fp == nil {
			continue
		}
		for _, side := range fp.side {
			for _, p := range side {
				if p != nil {
					n++
				}
			}
		}
	}
	return n
}

// ProfileBytes estimates the profile cache footprint in bytes:
// per-record profiles and the per-record slots that hold them (shared
// encoded sets counted once; a released record keeps its empty slot)
// plus the sealed dictionaries (each counted once, however many
// features share it) and the cached token streams.
func (c *Compiled) ProfileBytes() int {
	b := 0
	for _, ts := range c.streams {
		b += ts.Bytes()
	}
	seenSets := make(map[string]struct{})
	seenDicts := make(map[*sim.Dict]struct{})
	for _, fp := range c.profiles {
		if fp == nil {
			continue
		}
		if fp.dict != nil {
			if _, ok := seenDicts[fp.dict]; !ok {
				seenDicts[fp.dict] = struct{}{}
				b += fp.dict.Bytes()
			}
		}
		if fp.shareKey != "" {
			if _, ok := seenSets[fp.shareKey]; ok {
				continue
			}
			seenSets[fp.shareKey] = struct{}{}
		}
		for _, side := range fp.side {
			b += profileSlotBytes * len(side)
			for _, p := range side {
				b += sim.ProfileBytes(p)
			}
		}
	}
	return b
}

// profileSlotBytes is the size of one per-record slot of a profile set
// (an interface value).
const profileSlotBytes = 16
