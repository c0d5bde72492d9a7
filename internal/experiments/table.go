package experiments

import (
	"fmt"
	"io"
	"strings"
	"text/tabwriter"
)

// Table is a printable experiment output: the rows/series a paper table or
// figure reports. Its JSON form is the table's wire and artifact format
// (paperfigd frames, paperfig -json); Artifact.WriteCSV writes one CSV
// file per table.
type Table struct {
	Title  string     `json:"title"`
	Note   string     `json:"note,omitempty"`
	Header []string   `json:"header,omitempty"`
	Rows   [][]string `json:"rows"`
}

// Fprint renders the table as aligned text.
func (t Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s ==\n", t.Title)
	if t.Note != "" {
		fmt.Fprintf(w, "%s\n", t.Note)
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	if len(t.Header) > 0 {
		fmt.Fprintln(tw, strings.Join(t.Header, "\t"))
	}
	for _, r := range t.Rows {
		fmt.Fprintln(tw, strings.Join(r, "\t"))
	}
	tw.Flush()
	fmt.Fprintln(w)
}

// String renders the table to a string.
func (t Table) String() string {
	var b strings.Builder
	t.Fprint(&b)
	return b.String()
}

func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string { return fmt.Sprintf("%.3f", v) }
func pct(v float64) string {
	return fmt.Sprintf("%+.2f%%", v)
}
