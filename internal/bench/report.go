package bench

import (
	"context"
	"fmt"
	"io"
	"text/tabwriter"
	"time"

	"rulematch/internal/incremental"
)

// Table is a simple printable result table shared by all experiments.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Print renders the table with aligned columns.
func (t *Table) Print(w io.Writer) {
	fmt.Fprintf(w, "== %s ==\n", t.Title)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	printRow(tw, t.Header)
	for _, r := range t.Rows {
		printRow(tw, r)
	}
	tw.Flush()
	for _, n := range t.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	fmt.Fprintln(w)
}

func printRow(w io.Writer, cells []string) {
	for i, c := range cells {
		if i > 0 {
			fmt.Fprint(w, "\t")
		}
		fmt.Fprint(w, c)
	}
	fmt.Fprintln(w)
}

// ms formats a duration in milliseconds with adaptive precision.
func ms(d time.Duration) string {
	v := float64(d.Microseconds()) / 1000
	switch {
	case v >= 100:
		return fmt.Sprintf("%.0f", v)
	case v >= 1:
		return fmt.Sprintf("%.2f", v)
	default:
		return fmt.Sprintf("%.3f", v)
	}
}

// timeIt measures fn once.
func timeIt(fn func()) time.Duration {
	start := time.Now()
	fn()
	return time.Since(start)
}

// timeRun measures one full materializing run of the session.
func timeRun(s *incremental.Session) (time.Duration, error) {
	var err error
	d := timeIt(func() { err = s.Run(context.TODO()) })
	return d, err
}
