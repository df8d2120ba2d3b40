package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/url"
	"sort"
	"strings"

	"rulematch/internal/core"
	"rulematch/internal/incremental"
	"rulematch/internal/rule"
	"rulematch/internal/server"
	"rulematch/internal/table"
)

// Output checks run after the timed phase and outside every timer.
// Each compares the program's HTTP-visible output against an oracle
// the benchmark builds itself.

var errMismatch = errors.New("output mismatch")

// tables parses the create request's CSVs again: every oracle gets
// private tables, since sessions append to theirs in place.
func (s *sessionSpec) tables() (*table.Table, *table.Table, error) {
	a, err := table.ReadCSV(strings.NewReader(s.csvA), "A")
	if err != nil {
		return nil, nil, err
	}
	b, err := table.ReadCSV(strings.NewReader(s.csvB), "B")
	if err != nil {
		return nil, nil, err
	}
	return a, b, nil
}

// coldSession is the cold batch run the server's create path performs:
// block, compile, materialize — under emserve's engine configuration.
func (in *inputs) coldSession(f rule.Function, a, b *table.Table) (*incremental.Session, error) {
	bl := in.blocker()
	pairs, err := bl.Pairs(a, b)
	if err != nil {
		return nil, err
	}
	c, err := core.Compile(f, in.lib, a, b)
	if err != nil {
		return nil, err
	}
	s := incremental.NewSessionConfig(c, pairs, engineConfig())
	s.Blocker = bl
	if err := s.Run(context.Background()); err != nil {
		return nil, err
	}
	return s, nil
}

// matchSet lists a session's matched pairs by record ID.
func matchSet(s *incremental.Session) map[[2]string]bool {
	out := map[[2]string]bool{}
	a, b := s.M.C.A, s.M.C.B
	for pi, p := range s.M.Pairs {
		if s.St.Matched.Get(pi) {
			out[[2]string{a.Records[p.A].ID, b.Records[p.B].ID}] = true
		}
	}
	return out
}

// pagedMatches walks every page of a session's matches over HTTP.
func pagedMatches(c *client, base, name string) (map[[2]string]bool, error) {
	out := map[[2]string]bool{}
	cursor := ""
	for {
		u := base + "/v1/sessions/" + name + "/matches?limit=5000"
		if cursor != "" {
			u += "&cursor=" + url.QueryEscape(cursor)
		}
		if err := c.get(u); err != nil {
			return nil, err
		}
		var page server.MatchPage
		if err := json.Unmarshal(c.buf.Bytes(), &page); err != nil {
			return nil, err
		}
		for _, m := range page.Matches {
			out[[2]string{m.IDA, m.IDB}] = true
		}
		if page.NextCursor == "" {
			if len(out) != page.Total {
				return nil, fmt.Errorf("session %s: paged %d matches, total says %d", name, len(out), page.Total)
			}
			return out, nil
		}
		cursor = page.NextCursor
	}
}

func sameSet(what string, got, want map[[2]string]bool) error {
	missing, extra := 0, 0
	for k := range want {
		if !got[k] {
			missing++
		}
	}
	for k := range got {
		if !want[k] {
			extra++
		}
	}
	if missing+extra > 0 {
		return fmt.Errorf("%s: %w: %d matches vs oracle %d (%d missing, %d extra)",
			what, errMismatch, len(got), len(want), missing, extra)
	}
	return nil
}

// checkOutputs runs the workload's correctness check.
func checkOutputs(in *inputs, st *stack) error {
	switch in.workload {
	case "debug-loop":
		return checkDebugLoop(in, st)
	case "replicated-stream":
		return checkStream(in, st)
	default:
		return checkChurn(in, st)
	}
}

// listedFunction rebuilds the session's current rule set from its
// rules listing.
func listedFunction(c *client, base, name string) (rule.Function, error) {
	if err := c.get(base + "/v1/sessions/" + name + "/rules"); err != nil {
		return rule.Function{}, err
	}
	var rl server.RuleList
	if err := json.Unmarshal(c.buf.Bytes(), &rl); err != nil {
		return rule.Function{}, err
	}
	var f rule.Function
	for _, ri := range rl.Rules {
		r := rule.Rule{Name: ri.Name}
		for _, pi := range ri.Preds {
			p, err := rule.ParsePredicate(pi.Key)
			if err != nil {
				return rule.Function{}, err
			}
			r.Preds = append(r.Preds, p)
		}
		f.Rules = append(f.Rules, r)
	}
	return f, nil
}

// ruleSetKey identifies a rule set independently of rule order.
func ruleSetKey(f rule.Function) map[string]bool {
	out := map[string]bool{}
	for _, r := range f.Rules {
		keys := make([]string, len(r.Preds))
		for i, p := range r.Preds {
			keys[i] = p.Key()
		}
		sort.Strings(keys)
		out[r.Name+": "+strings.Join(keys, " and ")] = true
	}
	return out
}

// checkDebugLoop: the script is stationary, so the final rule set is
// the initial one (up to order), and the final match set equals a cold
// batch run of that final rule set.
func checkDebugLoop(in *inputs, st *stack) error {
	s := &in.sessions[0]
	f, err := listedFunction(st.client, st.primary.base, s.Name)
	if err != nil {
		return err
	}
	got, want := ruleSetKey(f), ruleSetKey(s.rules)
	if len(got) != len(want) {
		return fmt.Errorf("final rule set has %d rules, initial %d: %w", len(got), len(want), errMismatch)
	}
	for k := range want {
		if !got[k] {
			return fmt.Errorf("final rule set lost %q: %w", k, errMismatch)
		}
	}
	a, b, err := s.tables()
	if err != nil {
		return err
	}
	cold, err := in.coldSession(f, a, b)
	if err != nil {
		return err
	}
	served, err := pagedMatches(st.client, st.primary.base, s.Name)
	if err != nil {
		return err
	}
	return sameSet("debug-loop final matches vs cold run", served, matchSet(cold))
}

// checkStream: once caught up, the follower's snapshot is
// byte-identical to the primary's, and the follower's match set equals
// a cold run over the final live tables.
func checkStream(in *inputs, st *stack) error {
	s := &in.sessions[0]
	name := s.Name
	c := st.client
	if err := c.get(st.primary.base + "/v1/sessions/" + name + "/stats"); err != nil {
		return err
	}
	var stats server.StatsResponse
	if err := json.Unmarshal(c.buf.Bytes(), &stats); err != nil {
		return err
	}
	if _, err := st.awaitApplied(name, stats.Seq); err != nil {
		return err
	}
	if err := c.get(st.primary.base + "/v1/sessions/" + name + "/snapshot"); err != nil {
		return err
	}
	prim := append([]byte(nil), c.buf.Bytes()...)
	if err := c.get(st.follower.base + "/v1/sessions/" + name + "/snapshot"); err != nil {
		return err
	}
	if !bytes.Equal(prim, c.buf.Bytes()) {
		return fmt.Errorf("follower snapshot (%d bytes) differs from primary's (%d bytes): %w", c.buf.Len(), len(prim), errMismatch)
	}
	a, b, err := s.tables()
	if err != nil {
		return err
	}
	live := len(in.appended) - streamRetire
	if live < 0 {
		live = 0
	}
	for _, batch := range in.appended[live:] {
		for _, r := range batch {
			if _, err := b.AppendRecord(r); err != nil {
				return err
			}
		}
	}
	cold, err := in.coldSession(s.rules, a, b)
	if err != nil {
		return err
	}
	served, err := pagedMatches(c, st.follower.base, name)
	if err != nil {
		return err
	}
	return sameSet("follower matches vs cold run over the live tables", served, matchSet(cold))
}

// checkChurn: every session's final match set equals a never-evicted
// in-process oracle fed the same edits.
func checkChurn(in *inputs, st *stack) error {
	for i := range in.sessions {
		s := &in.sessions[i]
		a, b, err := s.tables()
		if err != nil {
			return err
		}
		oracle, err := in.coldSession(s.rules, a, b)
		if err != nil {
			return err
		}
		for _, o := range in.script {
			if o.Session != s.Name || o.Kind != kEdit {
				continue
			}
			var e server.EditRequest
			if err := json.Unmarshal(o.Body, &e); err != nil {
				return err
			}
			if err := oracle.SetThreshold(e.Rule, e.Pred, e.Threshold); err != nil {
				return fmt.Errorf("oracle %s: %w", s.Name, err)
			}
		}
		served, err := pagedMatches(st.client, st.primary.base, s.Name)
		if err != nil {
			return err
		}
		if err := sameSet("session "+s.Name+" vs never-evicted oracle", served, matchSet(oracle)); err != nil {
			return err
		}
	}
	return nil
}

// residentBytes is a freshly created session's memory footprint
// (memo + bitmaps, the store's accounting unit).
func (in *inputs) residentBytes(spec *sessionSpec) (int64, error) {
	a, b, err := spec.tables()
	if err != nil {
		return 0, err
	}
	s, err := in.coldSession(spec.rules, a, b)
	if err != nil {
		return 0, err
	}
	memo, bitmaps := s.MemoryBytes()
	return memo + bitmaps, nil
}
