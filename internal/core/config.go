package core

import (
	"runtime"

	"rulematch/internal/table"
)

// Config is the engine configuration the CLIs, the server, the session
// store and replicas run: the worker count. Everything else is fixed to
// the paper's recommended configuration — the batch engine, array memo
// (Algorithm 4), §5.4.3 check-cache-first and the profile cache — so
// Config.NewMatcher, incremental.NewSessionConfig and
// Session.Reconfigure all build the same matcher.
type Config struct {
	// Workers is the shard worker count for full runs. The
	// normalization contract is NormalizeWorkers: <= 0 means
	// GOMAXPROCS.
	Workers int
}

// NewMatcher builds the configured matcher for the compiled function
// and pairs: array memo, check-cache-first, cfg.Workers, with the
// compiled function's profile cache turned on.
func (cfg Config) NewMatcher(c *Compiled, pairs []table.Pair) *Matcher {
	m := &Matcher{C: c, Pairs: pairs, Memo: NewArrayMemo(len(pairs))}
	cfg.Apply(m)
	return m
}

// Apply configures an existing matcher — its worker count,
// check-cache-first and its compiled function's profile cache — and
// keeps its memo.
func (cfg Config) Apply(m *Matcher) {
	m.Workers = cfg.Workers
	m.CheckCacheFirst = true
	m.C.EnableProfileCache()
}

// NormalizeWorkers is the single place that defines worker-count
// semantics for the sharded methods (and through them the incremental
// session's full runs, the CLIs and the server): n <= 0 selects
// runtime.GOMAXPROCS(0), any positive value is used as given.
func NormalizeWorkers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}
