package wal

import (
	"fmt"

	"rulematch/internal/incremental"
	"rulematch/internal/rule"
)

// Apply applies one edit record to a session. It is the one op
// dispatcher: the emserve edit and record handlers apply the record
// they then journal through it, and recovery and replicas replay
// journaled records through it, so all three run the exact same
// incremental operation. Parse errors are returned bare.
func Apply(s *incremental.Session, rec Record) error {
	switch rec.Op {
	case "add_predicate":
		p, err := rule.ParsePredicate(rec.Src)
		if err != nil {
			return err
		}
		return s.AddPredicate(rec.Rule, p)
	case "remove_predicate":
		return s.RemovePredicate(rec.Rule, rec.Pred)
	case "tighten":
		return s.TightenPredicate(rec.Rule, rec.Pred, rec.Threshold)
	case "relax":
		return s.RelaxPredicate(rec.Rule, rec.Pred, rec.Threshold)
	case "set_threshold":
		return s.SetThreshold(rec.Rule, rec.Pred, rec.Threshold)
	case "add_rule":
		r, err := rule.ParseRule(rec.Src)
		if err != nil {
			return err
		}
		return s.AddRule(r)
	case "remove_rule":
		return s.RemoveRule(rec.Rule)
	case "record_append":
		return s.AddRecords(rec.RecsA, rec.RecsB)
	case "record_delete":
		return s.DeleteRecords(rec.DelA, rec.DelB)
	default:
		return fmt.Errorf("unknown op %q", rec.Op)
	}
}

// Replay applies every record with Seq > afterSeq in order and
// returns the sequence number reached. A record that fails to apply
// stops the replay with an error — the journal and snapshot disagree,
// which recovery surfaces rather than papering over.
func Replay(s *incremental.Session, recs []Record, afterSeq uint64) (uint64, error) {
	seq := afterSeq
	for _, rec := range recs {
		if rec.Seq <= afterSeq {
			continue // already folded into the snapshot
		}
		if err := Apply(s, rec); err != nil {
			return seq, fmt.Errorf("wal: record %d: %w", rec.Seq, err)
		}
		seq = rec.Seq
	}
	return seq, nil
}
