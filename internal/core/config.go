package core

import (
	"runtime"

	"rulematch/internal/table"
)

// Config is the one way to configure the engine: execution engine,
// memoization levels, profile cache and shard workers. NewMatcher,
// incremental.NewSessionConfig, Session.Reconfigure and the CLIs and
// server all take it.
//
// The zero value is NOT the default configuration — use DefaultConfig
// (batch engine, dynamic memoing on, one worker) or ConfigFor (which also
// mirrors a compiled function's current profile cache setting).
type Config struct {
	// Engine selects the whole-run execution strategy (see Engine).
	Engine Engine
	// Workers is the shard worker count for full runs and sweeps. The
	// normalization contract is NormalizeWorkers: <= 0 means
	// GOMAXPROCS.
	Workers int
	// Memo enables pair-level dynamic memoing (array memo) — the
	// paper's recommended configuration.
	Memo bool
	// CheckCacheFirst enables the §5.4.3 runtime predicate reordering.
	CheckCacheFirst bool
	// ProfileCache precomputes per-record profiles for profile-capable
	// similarities.
	ProfileCache bool
}

// DefaultConfig is the configuration NewMatcher uses: batch engine,
// dynamic memoing on, everything else off, one worker.
func DefaultConfig() Config {
	return Config{Workers: 1, Memo: true}
}

// ConfigFor seeds a config from a compiled function's current profile
// cache setting, so applying it back through Config.NewMatcher leaves
// the compiled function as it is. This is what keeps the setter style
// (c.EnableProfileCache() then NewMatcher(c, pairs)) working.
func ConfigFor(c *Compiled) Config {
	cfg := DefaultConfig()
	cfg.ProfileCache = c.ProfileCacheEnabled()
	return cfg
}

// NewMatcher builds a matcher for the compiled function and pairs
// according to the config: the profile cache setting is pushed onto c
// first (a no-op when it already matches), then the matcher fields are
// set.
func (cfg Config) NewMatcher(c *Compiled, pairs []table.Pair) *Matcher {
	c.SetProfileCache(cfg.ProfileCache)
	m := &Matcher{
		C:               c,
		Pairs:           pairs,
		CheckCacheFirst: cfg.CheckCacheFirst,
		Engine:          cfg.Engine,
		Workers:         cfg.Workers,
	}
	if cfg.Memo {
		m.Memo = NewArrayMemo(len(pairs))
	}
	return m
}

// NormalizeWorkers is the single place that defines worker-count
// semantics for the sharded methods (and through them the incremental
// session's runs and sweeps, the CLIs and the server): n <= 0 selects
// runtime.GOMAXPROCS(0), any positive value is used as given.
func NormalizeWorkers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}
