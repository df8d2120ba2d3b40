package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand"

	"rulematch/internal/bench"
	"rulematch/internal/block"
	"rulematch/internal/datagen"
	"rulematch/internal/rule"
	"rulematch/internal/server"
	"rulematch/internal/sim"
	"rulematch/internal/table"
)

// Op kinds. Each is one client request in the closed loop.
const (
	kEdit    = "edit"    // POST .../edits
	kRules   = "rules"   // GET .../rules
	kMatches = "matches" // GET .../matches?limit=pageSize
	kSweep   = "sweep"   // POST .../sweep
	kRecords = "records" // POST .../records
)

// pageSize is the matches page length every read asks for.
const pageSize = 100

// Script sizing: operations per nominal second of --seconds, set so
// one run's timed phase lasts about --seconds on a 2-vCPU machine.
// The script is a pure function of (seed, seconds), so per-layer
// counts repeat exactly for one seed.
const (
	debugPairsPerSec  = 100 // change/inverse edit pairs
	debugSweepEvery   = 500 // one sweep per this many pairs
	debugPageEvery    = 4   // one matches page per this many pairs
	streamStepsPerSec = 16  // records requests (each with a follower wait + read)
	churnOpsPerSec    = 45  // listings + edits over all sessions
)

// op is one scripted request. Body is the pre-encoded JSON request the
// HTTP driver sends and the direct driver decodes, as the handler would.
type op struct {
	Kind     string
	Session  string
	Follower bool // served by the follower (replicated-stream reads)
	Body     []byte
}

// sessionSpec is one session the set-up phase creates over HTTP, with
// the inputs its oracles are rebuilt from.
type sessionSpec struct {
	Name       string
	Body       []byte // server.CreateSessionRequest
	csvA, csvB string
	rules      rule.Function
}

// inputs is everything a workload run needs, generated from the seed
// before any server starts.
type inputs struct {
	workload string
	seed     int64
	sessions []sessionSpec
	script   []op
	// follower: replicated-stream runs a follower beside the primary.
	follower bool
	// memBudget is the store's memory budget in bytes (0 = none).
	memBudget int64

	// The blocking attribute and similarity library of every session,
	// for oracles and cold-run checks.
	blockAttr string
	lib       *sim.Library
	// appended is the full record set each replicated-stream step
	// appends (deletes refer to IDs of earlier steps).
	appended [][]table.Record
}

// digest fingerprints the generated inputs and script, for the
// determinism self-test.
func (in *inputs) digest() string {
	h := sha256.New()
	for _, s := range in.sessions {
		h.Write([]byte(s.Name))
		h.Write(s.Body)
	}
	for _, o := range in.script {
		fmt.Fprintf(h, "%s|%s|%v|", o.Kind, o.Session, o.Follower)
		h.Write(o.Body)
	}
	fmt.Fprintf(h, "budget=%d", in.memBudget)
	return fmt.Sprintf("%x", h.Sum(nil))
}

// dataset generates the products domain at scale with the seed and
// mines its rule pool. The rules are canonicalized so the script's
// model of the rule set equals what the server compiles; a rule that
// canonicalizes to always-false is dropped.
func dataset(seed int64, scale float64) (*datagen.Dataset, []rule.Rule, error) {
	cfg := datagen.StandardConfig(datagen.Products(), scale)
	cfg.Seed = seed
	ds, err := datagen.Generate(cfg)
	if err != nil {
		return nil, nil, err
	}
	mined, err := bench.MineRules(ds, sim.Standard(), bench.TargetRules("products"), seed+1)
	if err != nil {
		return nil, nil, err
	}
	rules := make([]rule.Rule, 0, len(mined))
	for _, r := range mined {
		cr, err := rule.Canonicalize(r)
		if err != nil {
			continue
		}
		rules = append(rules, cr)
	}
	return ds, rules, nil
}

// csvOf renders a table as the CSV the create request inlines.
func csvOf(t *table.Table) (string, error) {
	var buf bytes.Buffer
	if err := t.WriteCSV(&buf); err != nil {
		return "", err
	}
	return buf.String(), nil
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // the wire types always encode
	}
	return b
}

func newInputs(name string, seed int64, ds *datagen.Dataset) *inputs {
	return &inputs{workload: name, seed: seed, blockAttr: ds.BlockAttr, lib: sim.Standard()}
}

// newSession builds the create request for one session over tables a
// and b with the given rules.
func (in *inputs) newSession(name string, a, b *table.Table, rules []rule.Rule) (sessionSpec, error) {
	csvA, err := csvOf(a)
	if err != nil {
		return sessionSpec{}, err
	}
	csvB, err := csvOf(b)
	if err != nil {
		return sessionSpec{}, err
	}
	f := rule.Function{Rules: rules}
	req := server.CreateSessionRequest{Name: name, TableA: csvA, TableB: csvB, Rules: f.String(), Block: in.blockAttr}
	return sessionSpec{Name: name, Body: mustJSON(req), csvA: csvA, csvB: csvB, rules: f}, nil
}

// ruleModel tracks the server's rule set (order and predicate
// positions) as the script edits it, so every scripted index is valid.
type ruleModel struct{ rules []rule.Rule }

func newRuleModel(f rule.Function) *ruleModel {
	m := &ruleModel{rules: make([]rule.Rule, len(f.Rules))}
	for i, r := range f.Rules {
		m.rules[i] = r.Clone()
	}
	return m
}

// sibling returns the index of the other bound on predicate j's
// feature within rule r, or -1.
func (m *ruleModel) sibling(r, j int) int {
	preds := m.rules[r].Preds
	for k := range preds {
		if k != j && preds[k].Feature == preds[j].Feature {
			return k
		}
	}
	return -1
}

// bounds reports whether rule r already has a predicate on feature f.
func (m *ruleModel) bounds(r int, f rule.Feature) bool {
	for _, p := range m.rules[r].Preds {
		if p.Feature == f {
			return true
		}
	}
	return false
}

// moveRuleToEnd models remove_rule(r) followed by add_rule of the same
// rule: it is re-appended last.
func (m *ruleModel) moveRuleToEnd(r int) {
	ru := m.rules[r]
	m.rules = append(m.rules[:r], m.rules[r+1:]...)
	m.rules = append(m.rules, ru)
}

// thresholdRange returns the open interval a new threshold for
// predicate j of rule r may take without contradicting its sibling
// bound, so every snapshot of the rule set stays loadable.
func (m *ruleModel) thresholdRange(r, j int) (lo, hi float64) {
	lo, hi = 0, 1
	p := m.rules[r].Preds[j]
	if k := m.sibling(r, j); k >= 0 {
		if p.Op.Upper() {
			lo = m.rules[r].Preds[k].Threshold
		} else {
			hi = m.rules[r].Preds[k].Threshold
		}
	}
	return lo, hi
}

// deck deals rule names in seeded random order, reshuffling when
// exhausted, so over a run every rule is edited about equally often
// and the op mix does not hinge on which few rules a draw happens to
// hit.
type deck struct {
	rng   *rand.Rand
	names []string
	next  int
}

func newDeck(rng *rand.Rand, f rule.Function) *deck {
	d := &deck{rng: rng, names: make([]string, len(f.Rules))}
	for i, r := range f.Rules {
		d.names[i] = r.Name
	}
	d.next = len(d.names)
	return d
}

func (d *deck) draw() string {
	if d.next == len(d.names) {
		d.rng.Shuffle(len(d.names), func(i, j int) { d.names[i], d.names[j] = d.names[j], d.names[i] })
		d.next = 0
	}
	d.next++
	return d.names[d.next-1]
}

// index returns the current position of the named rule.
func (m *ruleModel) index(name string) int {
	for i := range m.rules {
		if m.rules[i].Name == name {
			return i
		}
	}
	panic("perfbench: rule model lost rule " + name)
}

// pickPred picks a random non-equality predicate of rule r, if any.
func (m *ruleModel) pickPred(rng *rand.Rand, r int) (int, bool) {
	var cands []int
	for j, p := range m.rules[r].Preds {
		if p.Op != rule.Eq {
			cands = append(cands, j)
		}
	}
	if len(cands) == 0 {
		return 0, false
	}
	return cands[rng.Intn(len(cands))], true
}

// genDebugLoop: one analyst on one resident session of products at
// scale 0.05. The script deals Fig 6's six change types, each issued
// as a change/inverse pair so the rule set stays stationary; a rules
// listing follows every pair, a matches page every debugPageEvery
// pairs and a 9-point sweep every debugSweepEvery pairs.
//
// Edit cost is heavy-tailed and a property of the rule edited: a
// cascade out of an early, broad rule re-evaluates thousands of pairs
// against every later rule. So instead of sampling (type, rule) the
// script deals a shuffled deck holding every combination once; at
// --seconds 15 a run plays about the whole deck, and its latency
// percentiles describe the rule set rather than the luck of a draw.
func genDebugLoop(seed int64, seconds int) (*inputs, error) {
	ds, rules, err := dataset(seed, 0.05)
	if err != nil {
		return nil, err
	}
	in := newInputs("debug-loop", seed, ds)
	const name = "debug"
	s, err := in.newSession(name, ds.A, ds.B, rules)
	if err != nil {
		return nil, err
	}
	in.sessions = []sessionSpec{s}

	type card struct {
		change int
		rule   string
	}
	rng := rand.New(rand.NewSource(seed))
	var cards []card
	deal := func() card {
		if len(cards) == 0 {
			for change := 0; change < 6; change++ {
				for _, r := range s.rules.Rules {
					cards = append(cards, card{change, r.Name})
				}
			}
			rng.Shuffle(len(cards), func(i, j int) { cards[i], cards[j] = cards[j], cards[i] })
		}
		c := cards[0]
		cards = cards[1:]
		return c
	}
	m := newRuleModel(s.rules)
	sweeps := newDeck(rng, s.rules)
	pool := ds.Domain.FeaturePool()
	edit := func(e server.EditRequest) {
		in.script = append(in.script, op{Kind: kEdit, Session: name, Body: mustJSON(e)})
	}
	pairs := debugPairsPerSec * seconds
	for k := 0; k < pairs; {
		c := deal()
		r := m.index(c.rule)
		preds := m.rules[r].Preds
		switch c.change {
		case 0, 1: // add predicate / remove predicate: add a fresh bound, then remove it
			var free []rule.Feature
			for _, f := range pool {
				if !m.bounds(r, f) {
					free = append(free, f)
				}
			}
			if len(free) == 0 {
				continue
			}
			p := rule.Predicate{Feature: free[rng.Intn(len(free))], Op: rule.Ge, Threshold: float64(1+rng.Intn(9)) / 10}
			if rng.Intn(3) == 0 {
				p.Op = rule.Lt
			}
			// A bound on a feature the rule does not use opens a new
			// canonical group at the end of the rule.
			edit(server.EditRequest{Op: "add_predicate", Rule: r, Predicate: p.String()})
			edit(server.EditRequest{Op: "remove_predicate", Rule: r, Pred: len(preds)})
		case 2, 3: // tighten / relax: move by 0.1-0.5, then move back
			j, ok := m.pickPred(rng, r)
			if !ok {
				continue
			}
			p := preds[j]
			lo, hi := m.thresholdRange(r, j)
			stricter := c.change == 2
			step := 0.1
			if stricter == p.Op.Upper() {
				step = -0.1
			}
			var moves []float64
			for d := 1; d <= 5; d++ {
				if nt := p.Threshold + float64(d)*step; nt > lo && nt < hi {
					moves = append(moves, nt)
				}
			}
			if len(moves) == 0 {
				continue
			}
			first, second := "tighten", "relax"
			if !stricter {
				first, second = second, first
			}
			edit(server.EditRequest{Op: first, Rule: r, Pred: j, Threshold: moves[rng.Intn(len(moves))]})
			edit(server.EditRequest{Op: second, Rule: r, Pred: j, Threshold: p.Threshold})
		case 4: // add rule: append a copy of the rule, then remove it
			cp := m.rules[r].Clone()
			cp.Name += "x"
			edit(server.EditRequest{Op: "add_rule", RuleSrc: cp.String()})
			edit(server.EditRequest{Op: "remove_rule", Rule: len(m.rules)})
		default: // remove rule: remove, then re-add last
			src := m.rules[r].String()
			edit(server.EditRequest{Op: "remove_rule", Rule: r})
			edit(server.EditRequest{Op: "add_rule", RuleSrc: src})
			m.moveRuleToEnd(r)
		}
		in.script = append(in.script, op{Kind: kRules, Session: name})
		if k%debugPageEvery == debugPageEvery-1 {
			in.script = append(in.script, op{Kind: kMatches, Session: name})
		}
		if k%debugSweepEvery == debugSweepEvery/2 {
			r := m.index(sweeps.draw())
			if j, ok := m.pickPred(rng, r); ok {
				in.script = append(in.script, op{Kind: kSweep, Session: name,
					Body: mustJSON(server.SweepRequest{Rule: r, Pred: j, Steps: 9})})
			}
		}
		k++
	}
	return in, nil
}

// Replicated-stream batch shape: each step appends streamBatch
// held-out B rows under fresh IDs and deletes the rows appended
// streamRetire steps earlier.
const (
	streamBatch  = 20
	streamRetire = 10
)

// genStream: continuous ingest on a primary plus one follower, over
// products 0.05 with half of table B held out and the corpus-dependent
// rules dropped (as bench.Stream does, so a cold run over the final
// live tables is an exact oracle).
func genStream(seed int64, seconds int) (*inputs, error) {
	ds, rules, err := dataset(seed, 0.05)
	if err != nil {
		return nil, err
	}
	lib := sim.Standard()
	kept := rules[:0:0]
	for _, r := range rules {
		ok := true
		for _, p := range r.Preds {
			needs, err := lib.NeedsCorpus(p.Feature.Sim)
			if err != nil {
				return nil, err
			}
			ok = ok && !needs
		}
		if ok {
			kept = append(kept, r)
		}
	}
	cut := ds.B.Len() / 2
	base, err := table.New(ds.B.Name, ds.B.Attrs)
	if err != nil {
		return nil, err
	}
	for _, r := range ds.B.Records[:cut] {
		if _, err := base.AppendRecord(r); err != nil {
			return nil, err
		}
	}
	held := ds.B.Records[cut:]
	in := newInputs("replicated-stream", seed, ds)
	const name = "stream"
	s, err := in.newSession(name, ds.A, base, kept)
	if err != nil {
		return nil, err
	}
	in.sessions = []sessionSpec{s}
	in.follower = true

	rng := rand.New(rand.NewSource(seed))
	offset := rng.Intn(len(held))
	steps := streamStepsPerSec * seconds
	for i := 0; i < steps; i++ {
		batch := make([]table.Record, streamBatch)
		rows := make([]server.RecordRow, streamBatch)
		for k := range batch {
			src := held[(offset+i*streamBatch+k)%len(held)]
			id := fmt.Sprintf("%s~%d", src.ID, i)
			batch[k] = table.Record{ID: id, Values: src.Values}
			rows[k] = server.RecordRow{ID: id, Values: src.Values}
		}
		in.appended = append(in.appended, batch)
		req := server.RecordsRequest{AppendB: rows}
		if i >= streamRetire {
			for _, r := range in.appended[i-streamRetire] {
				req.DeleteB = append(req.DeleteB, r.ID)
			}
		}
		in.script = append(in.script,
			op{Kind: kRecords, Session: name, Body: mustJSON(req)},
			op{Kind: kMatches, Session: name, Follower: true})
	}
	return in, nil
}

// Session-churn shape: churnSessions durable sessions behind a budget
// that holds churnResident of them.
const (
	churnSessions = 12
	churnResident = 3
)

// genChurn: churnSessions sessions of products 0.02, each over its own
// generated dataset and mined rules, behind a memory budget of
// churnResident average sessions; the client picks a session uniformly
// and sends a rules listing (70%) or a set_threshold edit (30%).
func genChurn(seed int64, seconds int) (*inputs, error) {
	var in *inputs
	var total int64
	for i := 0; i < churnSessions; i++ {
		// Each analyst has a task of their own: a reload's cost is a
		// property of the session's data and rules, so twelve datasets
		// per run average out what one seed's draw would swing.
		ds, rules, err := dataset(seed*churnSessions+int64(i), 0.02)
		if err != nil {
			return nil, err
		}
		if in == nil {
			in = newInputs("session-churn", seed, ds)
		}
		s, err := in.newSession(churnName(i), ds.A, ds.B, rules)
		if err != nil {
			return nil, err
		}
		n, err := in.residentBytes(&s)
		if err != nil {
			return nil, err
		}
		total += n
		in.sessions = append(in.sessions, s)
	}
	// Room for churnResident sessions of average size plus half of one
	// for the growth a relaxed threshold brings.
	mean := total / churnSessions
	in.memBudget = mean*churnResident + mean/2
	rng := rand.New(rand.NewSource(seed))
	models := make([]*ruleModel, churnSessions)
	decks := make([]*deck, churnSessions)
	for i := range models {
		models[i] = newRuleModel(in.sessions[i].rules)
		decks[i] = newDeck(rng, in.sessions[i].rules)
	}
	ops := churnOpsPerSec * seconds
	for k := 0; k < ops; k++ {
		si := rng.Intn(churnSessions)
		if rng.Intn(10) < 7 {
			in.script = append(in.script, op{Kind: kRules, Session: churnName(si)})
			continue
		}
		m := models[si]
		r := m.index(decks[si].draw())
		j, ok := m.pickPred(rng, r)
		if !ok {
			k--
			continue
		}
		lo, hi := m.thresholdRange(r, j)
		cur := m.rules[r].Preds[j].Threshold
		// A 0.05 grid strictly inside (lo, hi), never the current value.
		var cands []float64
		for g := 1; g < 20; g++ {
			if t := float64(g) / 20; t > lo && t < hi && t != cur {
				cands = append(cands, t)
			}
		}
		if len(cands) == 0 {
			k--
			continue
		}
		t := cands[rng.Intn(len(cands))]
		m.rules[r].Preds[j].Threshold = t
		in.script = append(in.script, op{Kind: kEdit, Session: churnName(si),
			Body: mustJSON(server.EditRequest{Op: "set_threshold", Rule: r, Pred: j, Threshold: t})})
	}
	return in, nil
}

func churnName(i int) string { return fmt.Sprintf("s%02d", i) }

// blocker returns the workload's delta-capable blocker.
func (in *inputs) blocker() block.AttrEquivalence { return block.AttrEquivalence{Attr: in.blockAttr} }

// opName is the edit op (or the kind, for other requests) — the key
// per-op-kind statistics are grouped under.
func opName(o op) string {
	if o.Kind != kEdit {
		return o.Kind
	}
	var e server.EditRequest
	if err := json.Unmarshal(o.Body, &e); err != nil {
		return o.Kind
	}
	return e.Op
}
