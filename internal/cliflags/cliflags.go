// Package cliflags centralizes the flag surface shared by the
// rulematch CLIs (emmatch, emdebug, embench, emserve). The engine flag
// binds straight to core.Config, data flags load tables, rules and
// blocking, and ordering flags run the §5 optimizer — one definition,
// so the four tools cannot drift in flag names, defaults or behavior.
package cliflags

import (
	"encoding/csv"
	"flag"
	"fmt"
	"os"
	"strconv"
	"time"

	"rulematch/internal/block"
	"rulematch/internal/core"
	"rulematch/internal/costmodel"
	"rulematch/internal/estimate"
	"rulematch/internal/order"
	"rulematch/internal/persist"
	"rulematch/internal/rule"
	"rulematch/internal/table"
)

// Engine holds the shared engine flag. Construct with NewEngine (the
// zero value has the wrong default), call Register, then Config after
// flag parsing.
type Engine struct {
	Parallel int
}

// NewEngine returns the shared default: one worker.
func NewEngine() *Engine {
	return &Engine{Parallel: 1}
}

// Register binds -parallel, the engine flag every tool exposes.
func (e *Engine) Register(fs *flag.FlagSet) {
	fs.IntVar(&e.Parallel, "parallel", e.Parallel, "shard workers for full runs (0 = GOMAXPROCS)")
}

// Config materializes the flag as a core.Config — the single value
// handed to Config.NewMatcher / incremental.NewSessionConfig / the
// debug server.
func (e *Engine) Config() core.Config {
	return core.Config{Workers: e.Parallel}
}

// Limits holds the session-store lifecycle flags emserve (and the
// serve benchmark) expose: how many sessions a server admits, how many
// bytes of session state it keeps resident before evicting cold
// sessions to their snapshots, and how many edits one session may
// absorb.
type Limits struct {
	MaxSessions    int
	MemBudget      string
	MaxEdits       int64
	MaxTenantEdits int64
}

// Register binds -max-sessions, -mem-budget, -max-edits and
// -max-tenant-edits.
func (l *Limits) Register(fs *flag.FlagSet) {
	fs.IntVar(&l.MaxSessions, "max-sessions", l.MaxSessions,
		"maximum number of sessions, resident + evicted (0 = unlimited)")
	fs.StringVar(&l.MemBudget, "mem-budget", l.MemBudget,
		"resident session-state budget, e.g. 64MB or 1GiB; cold sessions are evicted to their snapshots past it (0 or empty = unlimited)")
	fs.Int64Var(&l.MaxEdits, "max-edits", l.MaxEdits,
		"per-session edit quota (0 = unlimited)")
	fs.Int64Var(&l.MaxTenantEdits, "max-tenant-edits", l.MaxTenantEdits,
		"aggregate edit quota across all of a tenant's sessions (0 = unlimited)")
}

// Budget parses the -mem-budget flag into bytes.
func (l *Limits) Budget() (int64, error) {
	if l.MemBudget == "" {
		return 0, nil
	}
	n, err := ParseBytes(l.MemBudget)
	if err != nil {
		return 0, fmt.Errorf("-mem-budget: %w", err)
	}
	return n, nil
}

// ParseBytes parses a human byte size: a plain integer is bytes, and
// the suffixes KB/MB/GB (decimal) and KiB/MiB/GiB (binary) scale it.
// K/M/G alone mean the binary units, matching common tool usage.
func ParseBytes(s string) (int64, error) {
	num, unit := s, ""
	for i, c := range s {
		if (c < '0' || c > '9') && c != '.' {
			num, unit = s[:i], s[i:]
			break
		}
	}
	if num == "" {
		return 0, fmt.Errorf("byte size %q: missing number", s)
	}
	var scale float64
	switch unit {
	case "", "B", "b":
		scale = 1
	case "KB", "kb":
		scale = 1e3
	case "MB", "mb":
		scale = 1e6
	case "GB", "gb":
		scale = 1e9
	case "K", "k", "KiB", "kib":
		scale = 1 << 10
	case "M", "m", "MiB", "mib":
		scale = 1 << 20
	case "G", "g", "GiB", "gib":
		scale = 1 << 30
	default:
		return 0, fmt.Errorf("byte size %q: unknown unit %q", s, unit)
	}
	f, err := strconv.ParseFloat(num, 64)
	if err != nil || f < 0 {
		return 0, fmt.Errorf("byte size %q: bad number %q", s, num)
	}
	return int64(f * scale), nil
}

// Data holds the shared input flags: tables, rules, blocking and
// optional gold labels.
type Data struct {
	TableA, TableB string
	RulesFile      string
	BlockAttr      string
	BlockTokens    string
	GoldFile       string
}

// Register binds -a, -b, -rules, -block, -blocktokens and -gold.
func (d *Data) Register(fs *flag.FlagSet) {
	fs.StringVar(&d.TableA, "a", "", "table A CSV (first column = id)")
	fs.StringVar(&d.TableB, "b", "", "table B CSV (first column = id)")
	fs.StringVar(&d.RulesFile, "rules", "", "matching rules in DSL form")
	fs.StringVar(&d.BlockAttr, "block", "", "attribute-equivalence blocking attribute")
	fs.StringVar(&d.BlockTokens, "blocktokens", "", "token-overlap blocking attribute (alternative to -block)")
	fs.StringVar(&d.GoldFile, "gold", "", "optional gold labels CSV (idA,idB header) for quality metrics")
}

// Inputs is a fully loaded matching task: tables, parsed function,
// blocked candidate pairs, and (optionally) gold labels.
type Inputs struct {
	A, B     *table.Table
	Function rule.Function
	// Blocker supports delta blocking, so sessions built from these
	// inputs can accept record appends (incremental.Session.Blocker).
	Blocker block.DeltaBlocker
	Pairs   []table.Pair
	// Gold is nil when no -gold file was given.
	Gold map[uint64]bool
	// BlockTime is how long the blocking pass took.
	BlockTime time.Duration
}

// Load validates the data flags and loads everything: tables, rules
// and the blocked candidate pairs, plus gold labels when configured.
func (d *Data) Load() (*Inputs, error) {
	if d.TableA == "" || d.TableB == "" || d.RulesFile == "" {
		return nil, fmt.Errorf("-a, -b and -rules are required")
	}
	if (d.BlockAttr == "") == (d.BlockTokens == "") {
		return nil, fmt.Errorf("exactly one of -block or -blocktokens is required")
	}
	a, err := table.ReadCSVFile(d.TableA, "A")
	if err != nil {
		return nil, fmt.Errorf("read table A: %w", err)
	}
	b, err := table.ReadCSVFile(d.TableB, "B")
	if err != nil {
		return nil, fmt.Errorf("read table B: %w", err)
	}
	src, err := os.ReadFile(d.RulesFile)
	if err != nil {
		return nil, err
	}
	f, err := rule.ParseFunction(string(src))
	if err != nil {
		return nil, fmt.Errorf("parse rules: %w", err)
	}
	var blocker block.DeltaBlocker
	if d.BlockAttr != "" {
		blocker = block.AttrEquivalence{Attr: d.BlockAttr}
	} else {
		blocker = block.TokenOverlap{Attr: d.BlockTokens, MinShared: 1, MaxTokenFreq: b.Len() / 10}
	}
	start := time.Now()
	pairs, err := blocker.Pairs(a, b)
	if err != nil {
		return nil, err
	}
	in := &Inputs{A: a, B: b, Function: f, Blocker: blocker, Pairs: pairs, BlockTime: time.Since(start)}
	if d.GoldFile != "" {
		if in.Gold, err = ReadGold(d.GoldFile, a, b); err != nil {
			return nil, err
		}
	}
	return in, nil
}

// Snapshot holds the shared snapshot-writing flags for tools that
// save sessions (emmatch -save, emdebug save). The default is the safe
// one: fsynced.
type Snapshot struct {
	Fsync bool
}

// NewSnapshot returns the shared defaults.
func NewSnapshot() *Snapshot { return &Snapshot{Fsync: true} }

// Register binds -fsync.
func (s *Snapshot) Register(fs *flag.FlagSet) {
	fs.BoolVar(&s.Fsync, "fsync", s.Fsync, "fsync saved snapshots (writes stay atomic either way)")
}

// Options translates the flags into persist save options.
func (s *Snapshot) Options() []persist.SaveOption {
	if !s.Fsync {
		return []persist.SaveOption{persist.NoFsync()}
	}
	return nil
}

// Ordering holds the shared rule-ordering flags.
type Ordering struct {
	Order      string
	SampleFrac float64
}

// NewOrdering returns the shared defaults (alg6, the default
// estimation sample fraction).
func NewOrdering() *Ordering {
	return &Ordering{Order: "alg6", SampleFrac: estimate.DefaultFraction}
}

// Register binds -order and -sample.
func (o *Ordering) Register(fs *flag.FlagSet) {
	fs.StringVar(&o.Order, "order", o.Order, "rule ordering: none|random|theorem1|alg5|alg6|conditional")
	fs.Float64Var(&o.SampleFrac, "sample", o.SampleFrac, "estimation sample fraction for ordering")
}

// Apply runs the configured ordering optimizer over the compiled
// function in place ("none" is a no-op) and reports how long it took.
func (o *Ordering) Apply(c *core.Compiled, pairs []table.Pair) (time.Duration, error) {
	if o.Order == "none" {
		return 0, nil
	}
	start := time.Now()
	est := estimate.New(c, pairs, o.SampleFrac, 1)
	model := costmodel.New(c, est)
	switch o.Order {
	case "random":
		order.Shuffle(c, 1)
	case "theorem1":
		order.PredicatesLemma3(c, model)
		order.RulesTheorem1(c, model)
	case "alg5":
		order.GreedyCost(c, model)
	case "alg6":
		order.GreedyReduction(c, model)
	case "conditional":
		order.GreedyConditional(c, model)
	default:
		return 0, fmt.Errorf("unknown ordering %q", o.Order)
	}
	return time.Since(start), nil
}

// ReadGold parses a gold labels CSV ("idA,idB" header) into pair keys
// over record indices — the format emgen writes and every tool reads.
func ReadGold(path string, a, b *table.Table) (map[uint64]bool, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rows, err := csv.NewReader(f).ReadAll()
	if err != nil {
		return nil, err
	}
	gold := make(map[uint64]bool)
	for i, row := range rows {
		if i == 0 || len(row) != 2 {
			continue // header / ragged
		}
		ai, okA := a.RecordByID(row[0])
		bi, okB := b.RecordByID(row[1])
		if !okA || !okB {
			return nil, fmt.Errorf("gold line %d references unknown record (%s, %s)", i+1, row[0], row[1])
		}
		gold[table.Pair{A: int32(ai), B: int32(bi)}.PairKey()] = true
	}
	return gold, nil
}
