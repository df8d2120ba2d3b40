package bench

import (
	"context"
	"fmt"

	"rulematch/internal/incremental"
)

// MemoryReport reproduces the Section 7.4 memory-consumption analysis:
// the size of the feature-value memo and of the incremental bitmaps
// after a full run with all rules.
func MemoryReport(task *Task) (*Table, error) {
	c, err := task.CompileSubset(len(task.Rules))
	if err != nil {
		return nil, err
	}
	s := incremental.NewSession(c, task.Pairs())
	if err := s.Run(context.TODO()); err != nil {
		return nil, err
	}
	memo, bitmaps := s.MemoryBytes()
	out := &Table{
		Title:  fmt.Sprintf("Section 7.4: memory consumption, %s", task.DS.Name),
		Header: []string{"Component", "Bytes", "MB"},
	}
	numPreds := 0
	for _, r := range c.Rules {
		numPreds += len(r.Preds)
	}
	out.AddRow("feature memo", fmt.Sprint(memo), fmt.Sprintf("%.2f", float64(memo)/1e6))
	out.AddRow("rule+predicate bitmaps", fmt.Sprint(bitmaps), fmt.Sprintf("%.2f", float64(bitmaps)/1e6))
	out.Notes = append(out.Notes,
		fmt.Sprintf("%d pairs, %d features bound, %d rules, %d predicates, %d memo entries",
			len(task.Pairs()), len(c.Features), len(c.Rules), numPreds, s.M.Memo.Entries()))
	return out, nil
}
