package experiments

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/schedule"
)

// Artifact is one experiment run's structured output: every table produced,
// the options that produced them, and the scheduler traffic behind them.
// CI uploads these as BENCH_*.json files to build a perf trajectory.
type Artifact struct {
	Name        string         `json:"name"`
	GeneratedAt time.Time      `json:"generated_at"`
	Elapsed     string         `json:"elapsed,omitempty"`
	Options     interface{}    `json:"options,omitempty"`
	Tables      []Table        `json:"tables"`
	Scheduler   schedule.Stats `json:"scheduler"`
}

// Add appends tables to the artifact.
func (a *Artifact) Add(tables ...Table) {
	a.Tables = append(a.Tables, tables...)
}

// WriteJSON writes the artifact to path (atomically, via temp + rename).
func (a Artifact) WriteJSON(path string) error {
	data, err := json.MarshalIndent(a, "", "\t")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// WriteCSV writes one CSV file per table into dir, named after a slug of
// the table title. The note is carried as a comment-style first record so
// the files stay self-describing.
func (a Artifact) WriteCSV(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	used := map[string]int{}
	for _, t := range a.Tables {
		slug := slugify(t.Title)
		used[slug]++
		if n := used[slug]; n > 1 {
			slug = fmt.Sprintf("%s_%d", slug, n)
		}
		if err := writeCSVTable(filepath.Join(dir, slug+".csv"), t); err != nil {
			return err
		}
	}
	return nil
}

func writeCSVTable(path string, t Table) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := csv.NewWriter(f)
	if t.Note != "" {
		w.Write([]string{"# " + t.Note})
	}
	if len(t.Header) > 0 {
		w.Write(t.Header)
	}
	for _, r := range t.Rows {
		w.Write(r)
	}
	w.Flush()
	if err := w.Error(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// slugify reduces a table title to a filesystem-safe stem, e.g.
// "Figure 3 — 16-core workloads" -> "figure_3_16-core_workloads".
func slugify(title string) string {
	var b strings.Builder
	lastSep := true
	for _, r := range strings.ToLower(title) {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r == '-':
			b.WriteRune(r)
			lastSep = false
		default:
			if !lastSep {
				b.WriteByte('_')
				lastSep = true
			}
		}
	}
	return strings.Trim(b.String(), "_")
}
