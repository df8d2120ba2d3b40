package core

import (
	"slices"
	"strconv"

	"rulematch/internal/sim"
)

// Profile caching: similarity functions implementing sim.Profiler
// compare precomputed per-record profiles (token sets, count vectors,
// TF-IDF weights). A record participates in many candidate pairs, so
// caching its profile amortizes tokenization and vector construction
// across all of them. EnableProfileCache only switches the cache on.
// Like Algorithm 4's dynamic memoing, a feature's profiles are built
// the first time a pair computes the feature (profileOf), so a reload,
// a listing or an edit that computes nothing builds none, and an edit
// builds only the share groups of the features it computes. The shard
// driver binds every rule feature before it fans out
// (BindRuleProfiles), so its workers only read profiles.
//
// A profile has one form per similarity. A sim.DictProfiler is cached
// dictionary-encoded: a per-column-pair token dictionary interns tokens
// to dense uint32 IDs, and profiles become sorted integer slices
// compared by merge intersection. The column pair is scanned once by
// the similarity's ID emitter (sim.EmitterFor) — interning tokens and
// recording the ID stream — and every record's profile is carved out
// of shared slab arrays. A DictProfiler that cannot be stream-encoded
// (a tokenizer without an emitter) stays unprofiled and scores raw
// strings. A sim.ValueProfiler (MongeElkan) caches Profile per value.
// Cached profiles score bit-identically to raw strings, so the profile
// cache never changes a match result.
//
// Two levels of sharing cut the build cost and footprint:
//
//   - Dictionaries are shared across features whose profiles draw from
//     the same token space (sim.ProfileSpec.Space) over the same column
//     pair — e.g. whitespace-tokenized Jaccard, Cosine and TF-IDF over
//     name×name all use one dictionary.
//   - Whole profile sets (share groups) are shared across features
//     with the same profile kind (sim.ProfileSpec.Kind) over the same
//     column pair — e.g. Jaccard and Dice both cache one sorted-ID set
//     per record, and TF-IDF and Soft TF-IDF share their weight
//     vectors.
//
// The registry of built groups (groups, dicts, streams) is what
// ExtendRecords and ReleaseRecords walk, so a group is either absent
// or current with the tables. An absent group is built later over the
// current columns, which already read released records as "".

// profileGroup is one share group: the per-record profiles of one
// profile kind over one column pair, [0] indexing table A records and
// [1] table B records. Every feature of that kind over those columns
// reads it; a value-profiled feature (Monge-Elkan) has a group of its
// own.
type profileGroup struct {
	// fn encodes records into the group's kind; any feature of the
	// group would do.
	fn         sim.Profiler
	colA, colB int
	// dictKey names the dictionary a dictionary-encoded group is
	// encoded against (token space and column pair); "" for value
	// profiles.
	dictKey string
	side    [2][]any
}

// featureProfiles is one feature's bound profile state: the profiler
// that scores it and the share group it reads. A feature whose
// similarity is not profiled, or cannot be stream-encoded, is bound
// with a nil group and scores raw strings.
type featureProfiles struct {
	fn sim.Profiler
	g  *profileGroup
}

// EnableProfileCache switches the profile cache on. It builds nothing:
// a feature's share group is bound on the feature's first compute, or
// by BindRuleProfiles. Idempotent: once on, it writes nothing, so
// configuring another matcher over c races with no compute.
func (c *Compiled) EnableProfileCache() {
	if !c.profilesOn {
		c.profilesOn = true
	}
}

// ProfileCacheEnabled reports whether profile caching is on.
func (c *Compiled) ProfileCacheEnabled() bool { return c.profilesOn }

// BindRuleProfiles binds the share group of every feature a current
// rule references — the features a full run computes. The shard driver
// calls it before fan-out, so its workers never wait on the bind lock.
// A no-op when the profile cache is off.
func (c *Compiled) BindRuleProfiles() {
	for _, r := range c.Rules {
		for _, p := range r.Preds {
			c.profileOf(p.Feat)
		}
	}
}

// profileOf returns the profiles feature fi scores through, binding its
// share group on the first call, or nil when the cache is off or fi
// scores raw strings. It is safe for concurrent use as long as nothing
// mutates c meanwhile: shard workers share c, and Session.Verify
// computes features under a read lock. A bound slot is read with one
// atomic load; only binding takes the lock.
func (c *Compiled) profileOf(fi int) *featureProfiles {
	if !c.profilesOn || fi >= len(c.profiles) {
		return nil
	}
	fp := c.profiles[fi].Load()
	if fp == nil {
		fp = c.bind(fi)
	}
	if fp.g == nil {
		return nil
	}
	return fp
}

// bind finds or builds feature fi's share group and publishes fi's
// slot. The slot is checked again under the lock, since a concurrent
// caller may have bound it first.
func (c *Compiled) bind(fi int) *featureProfiles {
	c.bindMu.Lock()
	defer c.bindMu.Unlock()
	if fp := c.profiles[fi].Load(); fp != nil {
		return fp
	}
	fp := &featureProfiles{}
	if pf, ok := c.Features[fi].Fn.(sim.Profiler); ok {
		if g := c.groupFor(&c.Features[fi], pf); g != nil {
			fp.fn, fp.g = pf, g
		}
	}
	c.profiles[fi].Store(fp)
	return fp
}

// groupFor returns the share group feature f reads, building and
// registering it over the current columns if no feature has yet, or
// nil when f's profiles cannot be built. Dictionary-encoded groups are
// keyed by profile kind and column pair; a value-profiled feature's
// group is keyed by the feature.
func (c *Compiled) groupFor(f *BoundFeature, fn sim.Profiler) *profileGroup {
	colKey := strconv.Itoa(f.ColA) + "|" + strconv.Itoa(f.ColB)
	g := &profileGroup{fn: fn, colA: f.ColA, colB: f.ColB}
	var key string
	switch fn := fn.(type) {
	case sim.DictProfiler:
		spec := fn.ProfileSpec()
		key, g.dictKey = spec.Kind+"|"+colKey, spec.Space+"|"+colKey
	case sim.ValueProfiler:
		key = "value|" + f.Key
	default:
		return nil
	}
	if old, ok := c.groups[key]; ok {
		return old
	}
	if !c.buildGroup(g) {
		return nil
	}
	c.groups[key] = g
	return g
}

// buildGroup profiles every record of g's column pair into g.side.
// Value profiles are built one value at a time. Dictionary-encoded
// groups go through the single-pass token stream: the column pair is
// scanned once by the ID emitter (interning into a fresh dictionary, or
// re-emitting against an already-sealed one), the stream is cached per
// dictionary key for later kinds over the same token space, and every
// record's profile is carved out of shared slabs. Reports false when
// the similarity has no ID emitter or a re-emission misses the sealed
// dictionary (see emitSealedStream).
func (c *Compiled) buildGroup(g *profileGroup) bool {
	if vp, ok := g.fn.(sim.ValueProfiler); ok {
		g.side[0] = make([]any, c.A.Len())
		for i := range g.side[0] {
			g.side[0][i] = vp.Profile(c.A.Value(i, g.colA))
		}
		g.side[1] = make([]any, c.B.Len())
		for j := range g.side[1] {
			g.side[1][j] = vp.Profile(c.B.Value(j, g.colB))
		}
		return true
	}
	dp := g.fn.(sim.DictProfiler)
	em, ok := sim.EmitterFor(dp)
	if !ok {
		return false
	}
	ts := c.streams[g.dictKey]
	if ts == nil {
		if d, ok := c.dicts[g.dictKey]; ok {
			ts = c.emitSealedStream(em, d, g.colA, g.colB)
			if ts == nil {
				return false
			}
		} else {
			sb := sim.NewStreamBuilder(em)
			for i := range c.A.Records {
				sb.AddValue(c.A.Value(i, g.colA))
			}
			for j := range c.B.Records {
				sb.AddValue(c.B.Value(j, g.colB))
			}
			ts = sb.Seal()
			c.dicts[g.dictKey] = ts.Dict
		}
		c.streams[g.dictKey] = ts
	}
	all := sim.ProfilesFromStream(dp, ts)
	nA := c.A.Len()
	// Full-capacity slices: a later ExtendRecords append reallocates
	// instead of writing side B's profiles over side A's tail.
	g.side[0] = all[:nA:nA]
	g.side[1] = all[nA:]
	return true
}

// emitSealedStream re-emits both columns against an already-sealed
// dictionary, yielding rank IDs directly. A coverage miss (nil return)
// cannot happen while the dictionary is current with the columns; the
// nil path is defensive.
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

// ExtendRecords brings every built share group in sync with tables
// that have grown since it was built; groups not built yet will be
// built over the grown columns. Value profiles append the new records'
// profiles in place. Dictionary-encoded groups emit the new records
// against the sealed dictionary: if it covers every token the new
// profiles are append-encoded against it; if not the dictionary is
// rebuilt over the full columns and every group drawing on it is
// re-encoded (rank-ordered IDs shift, so old encodings would no longer
// be comparable). Corpus statistics (TF-IDF document frequencies) are
// intentionally left frozen at build time — see the incremental
// package's AddRecords contract.
//
// A no-op when no group is built or the tables have not grown.
func (c *Compiled) ExtendRecords() {
	// Cached streams describe the old table lengths; drop them all. The
	// rebuild path below re-caches fresh full-coverage streams.
	clear(c.streams)
	rebuilt := make(map[string]bool) // dict keys rebuilt during this call
	// Sorted keys: a rebuild re-encodes groups in one fixed order.
	keys := make([]string, 0, len(c.groups))
	for key := range c.groups {
		keys = append(keys, key)
	}
	slices.Sort(keys)
	for _, key := range keys {
		g := c.groups[key]
		if vp, ok := g.fn.(sim.ValueProfiler); ok {
			for i := len(g.side[0]); i < c.A.Len(); i++ {
				g.side[0] = append(g.side[0], vp.Profile(c.A.Value(i, g.colA)))
			}
			for j := len(g.side[1]); j < c.B.Len(); j++ {
				g.side[1] = append(g.side[1], vp.Profile(c.B.Value(j, g.colB)))
			}
			continue
		}
		if !rebuilt[g.dictKey] {
			if c.appendStreamProfiles(g) {
				continue
			}
			rebuilt[g.dictKey] = true
			delete(c.dicts, g.dictKey)
		}
		// Groups are only ever built through the stream, so the emitter
		// exists and the re-encode cannot fail.
		if !c.buildGroup(g) {
			panic("core: stream re-encode failed for profile group " + key)
		}
	}
}

// appendStreamProfiles append-encodes the records added since g was
// built or last extended by emitting their token IDs against g's sealed
// dictionary; each new profile gets arrays of its own, so
// ReleaseRecords frees them. Reports false — leaving g untouched — when
// a new record carries a token outside the dictionary (the caller must
// rebuild).
func (c *Compiled) appendStreamProfiles(g *profileGroup) bool {
	dp := g.fn.(sim.DictProfiler)
	em, _ := sim.EmitterFor(dp)
	d := c.dicts[g.dictKey]
	var sc sim.TokScratch
	var ids []uint32
	encode := func(val string) (any, bool) {
		var ok bool
		ids, ok = em.AppendTokenIDs(ids[:0], val, d, &sc)
		if !ok {
			return nil, false
		}
		return sim.ProfileFromIDs(dp, d, ids), true
	}
	newA := make([]any, 0, c.A.Len()-len(g.side[0]))
	for i := len(g.side[0]); i < c.A.Len(); i++ {
		p, ok := encode(c.A.Value(i, g.colA))
		if !ok {
			return false
		}
		newA = append(newA, p)
	}
	newB := make([]any, 0, c.B.Len()-len(g.side[1]))
	for j := len(g.side[1]); j < c.B.Len(); j++ {
		p, ok := encode(c.B.Value(j, g.colB))
		if !ok {
			return false
		}
		newB = append(newB, p)
	}
	g.side[0] = append(g.side[0], newA...)
	g.side[1] = append(g.side[1], newB...)
	return true
}

// ReleaseRecords drops the cached profiles of records idx of one side
// (0 = table A, 1 = table B) from every built share group — encoded
// sets and value-profile sets alike — and drops the cached token
// streams, which still hold those records' token IDs. The caller
// guarantees that no candidate pair references the records any more
// and that their values now read "" (table.ReleaseTombstones), so
// nothing looks the dropped profiles up again, and a later full-column
// scan — a dictionary rebuild, a group built later — encodes the empty
// value for them.
func (c *Compiled) ReleaseRecords(side int, idx []int32) {
	if len(idx) == 0 {
		return
	}
	for _, g := range c.groups {
		profs := g.side[side]
		for _, i := range idx {
			profs[i] = nil
		}
	}
	clear(c.streams)
}

// ProfileEntries returns the number of cached per-record profile
// entries across all bound features (shared sets counted per feature).
// Released records (ReleaseRecords) hold none.
func (c *Compiled) ProfileEntries() int {
	c.bindMu.Lock()
	defer c.bindMu.Unlock()
	n := 0
	for fi := range c.profiles {
		fp := c.profiles[fi].Load()
		if fp == nil || fp.g == nil {
			continue
		}
		for _, side := range fp.g.side {
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
// per-record profiles and the per-record slots that hold them (each
// share group counted once, however many features read it; a released
// record keeps its empty slot) plus the sealed dictionaries (each
// counted once, however many groups share it) and the cached token
// streams.
func (c *Compiled) ProfileBytes() int {
	c.bindMu.Lock()
	defer c.bindMu.Unlock()
	b := 0
	for _, ts := range c.streams {
		b += ts.Bytes()
	}
	for _, d := range c.dicts {
		b += d.Bytes()
	}
	for _, g := range c.groups {
		for _, side := range g.side {
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
