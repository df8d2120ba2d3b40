// Package core implements the matching engine of the paper: the
// rudimentary and precomputation baselines (Algorithms 1 and 2), early
// exit (Algorithm 3), and early exit with dynamic memoing (Algorithm 4),
// over a compiled form of the rule language that binds features to
// table columns and similarity functions.
package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"rulematch/internal/rule"
	"rulematch/internal/sim"
	"rulematch/internal/table"
)

// BoundFeature is a feature bound to concrete table columns and an
// instantiated similarity function.
type BoundFeature struct {
	Key     string
	Feature rule.Feature
	ColA    int
	ColB    int
	Fn      sim.Func
}

// CompiledPred is a predicate referencing a bound feature by index.
type CompiledPred struct {
	Feat      int
	Op        rule.Op
	Threshold float64
	Key       string
}

// Eval applies the predicate to a feature value.
func (p CompiledPred) Eval(v float64) bool { return p.Op.Compare(v, p.Threshold) }

// CompiledRule is a rule whose predicates reference bound features.
// The predicate order is the evaluation order (the ordering optimizer
// rewrites it in place).
type CompiledRule struct {
	Name  string
	Preds []CompiledPred
}

// Compiled is a matching function bound to a pair of tables. It is
// mutable: the incremental matcher adds and removes rules and
// predicates, binding new features on demand.
type Compiled struct {
	A, B     *table.Table
	Lib      *sim.Library
	Features []BoundFeature
	Rules    []CompiledRule

	featIdx map[string]int
	corpora map[string]*sim.Corpus // keyed by attrA + "\x00" + attrB

	profilesOn bool
	// profiles is parallel to Features: slot fi holds feature fi's bound
	// profile state, nil until the feature's first compute, and is
	// published atomically so computing a feature takes no lock.
	profiles []atomic.Pointer[featureProfiles]
	// bindMu serializes binding, and guards the share-group registry
	// below while several callers compute features at once.
	bindMu sync.Mutex
	groups map[string]*profileGroup // keyed by kind|colA|colB
	dicts  map[string]*sim.Dict     // keyed by space|colA|colB
	// streams caches the sealed token stream per dictionary key so a
	// group bound later over the same token space encodes its profile
	// kind without re-tokenizing. Invalidated whenever the tables grow
	// or records are released.
	streams map[string]*sim.TokenStream
}

// Compile binds a matching function to two tables using the similarity
// library. Rules are canonicalized (Lemma 2 feature groups, redundant
// predicates dropped); rules proven always-false are rejected.
func Compile(f rule.Function, lib *sim.Library, a, b *table.Table) (*Compiled, error) {
	if err := rule.Validate(f, lib, a, b); err != nil {
		return nil, err
	}
	c := &Compiled{
		A:       a,
		B:       b,
		Lib:     lib,
		featIdx: make(map[string]int),
		corpora: make(map[string]*sim.Corpus),
		groups:  make(map[string]*profileGroup),
		dicts:   make(map[string]*sim.Dict),
		streams: make(map[string]*sim.TokenStream),
	}
	for _, r := range f.Rules {
		if err := c.AddRule(r); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// NumPairsHint is documentation-only: feature values are memoized per
// (feature, pair) by the Memo, which the Matcher owns.

// FeatureIndex returns the index of a bound feature by key, or -1.
func (c *Compiled) FeatureIndex(key string) int {
	if i, ok := c.featIdx[key]; ok {
		return i
	}
	return -1
}

// BindFeature returns the index of the bound feature for ft, binding it
// (and building corpus statistics if the similarity needs them) on
// first use. Its cached profiles are built later, by the feature's
// first compute.
func (c *Compiled) BindFeature(ft rule.Feature) (int, error) {
	key := ft.Key()
	if i, ok := c.featIdx[key]; ok {
		return i, nil
	}
	colA, ok := c.A.AttrIndex(ft.AttrA)
	if !ok {
		return 0, fmt.Errorf("core: table %q has no attribute %q", c.A.Name, ft.AttrA)
	}
	colB, ok := c.B.AttrIndex(ft.AttrB)
	if !ok {
		return 0, fmt.Errorf("core: table %q has no attribute %q", c.B.Name, ft.AttrB)
	}
	needsCorpus, err := c.Lib.NeedsCorpus(ft.Sim)
	if err != nil {
		return 0, err
	}
	var corpus *sim.Corpus
	if needsCorpus {
		corpus = c.corpusFor(ft.AttrA, ft.AttrB, colA, colB)
	}
	fn, err := c.Lib.Build(ft.Sim, corpus)
	if err != nil {
		return 0, err
	}
	c.Features = append(c.Features, BoundFeature{
		Key:     key,
		Feature: ft,
		ColA:    colA,
		ColB:    colB,
		Fn:      fn,
	})
	c.featIdx[key] = len(c.Features) - 1
	c.profiles = append(c.profiles, atomic.Pointer[featureProfiles]{})
	return len(c.Features) - 1, nil
}

// corpusFor returns (building and caching on first use) the corpus over
// the values of attribute colA in table A plus attribute colB in table B.
func (c *Compiled) corpusFor(attrA, attrB string, colA, colB int) *sim.Corpus {
	key := attrA + "\x00" + attrB
	if cp, ok := c.corpora[key]; ok {
		return cp
	}
	cp := sim.NewCorpus(nil)
	for i := range c.A.Records {
		cp.Add(c.A.Value(i, colA))
	}
	for i := range c.B.Records {
		cp.Add(c.B.Value(i, colB))
	}
	c.corpora[key] = cp
	return cp
}

// CompileRule canonicalizes and binds one rule without adding it to the
// function.
func (c *Compiled) CompileRule(r rule.Rule) (CompiledRule, error) {
	canon, err := rule.Canonicalize(r)
	if err != nil {
		return CompiledRule{}, err
	}
	cr := CompiledRule{Name: canon.Name, Preds: make([]CompiledPred, 0, len(canon.Preds))}
	for _, p := range canon.Preds {
		fi, err := c.BindFeature(p.Feature)
		if err != nil {
			return CompiledRule{}, err
		}
		cr.Preds = append(cr.Preds, CompiledPred{
			Feat:      fi,
			Op:        p.Op,
			Threshold: p.Threshold,
			Key:       p.Key(),
		})
	}
	return cr, nil
}

// AddRule canonicalizes, binds and appends one rule.
func (c *Compiled) AddRule(r rule.Rule) error {
	cr, err := c.CompileRule(r)
	if err != nil {
		return err
	}
	c.Rules = append(c.Rules, cr)
	return nil
}

// RemoveRule deletes the rule at index i, preserving order of the rest.
func (c *Compiled) RemoveRule(i int) {
	c.Rules = append(c.Rules[:i], c.Rules[i+1:]...)
}

// ComputeFeature evaluates bound feature fi for candidate pair p,
// without memoization. This is the raw similarity computation whose cost
// dominates matching time. With the profile cache enabled, profiled
// similarities compare cached per-record profiles instead of raw
// strings; the first compute of a feature binds them (profileOf).
func (c *Compiled) ComputeFeature(fi int, p table.Pair) float64 {
	if fp := c.profileOf(fi); fp != nil {
		return fp.fn.SimProfiles(fp.g.side[0][p.A], fp.g.side[1][p.B])
	}
	f := &c.Features[fi]
	return f.Fn.Sim(c.A.Value(int(p.A), f.ColA), c.B.Value(int(p.B), f.ColB))
}

// Function reconstructs the rule.Function corresponding to the current
// compiled state (useful for printing and round-trips).
func (c *Compiled) Function() rule.Function {
	var f rule.Function
	for _, cr := range c.Rules {
		r := rule.Rule{Name: cr.Name}
		for _, p := range cr.Preds {
			r.Preds = append(r.Preds, rule.Predicate{
				Feature:   c.Features[p.Feat].Feature,
				Op:        p.Op,
				Threshold: p.Threshold,
			})
		}
		f.Rules = append(f.Rules, r)
	}
	return f
}

// UsedFeatureIndexes returns the indexes of features referenced by at
// least one current rule (the "used features" of Table 2).
func (c *Compiled) UsedFeatureIndexes() []int {
	seen := make(map[int]struct{})
	var out []int
	for _, r := range c.Rules {
		for _, p := range r.Preds {
			if _, ok := seen[p.Feat]; !ok {
				seen[p.Feat] = struct{}{}
				out = append(out, p.Feat)
			}
		}
	}
	return out
}
