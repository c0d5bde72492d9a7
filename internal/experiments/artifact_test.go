package experiments

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/schedule"
)

func TestArtifactJSONAndCSV(t *testing.T) {
	dir := t.TempDir()
	a := Artifact{Name: "test", GeneratedAt: time.Unix(0, 0).UTC()}
	a.Add(Table{
		Title:  "Figure 3 — 16-core workloads",
		Note:   "note",
		Header: []string{"rank", "ADAPT_bp32"},
		Rows:   [][]string{{"1", "1.010"}, {"2", "1.020"}},
	})
	a.Add(Table{Title: "Figure 3 — 16-core workloads", Rows: [][]string{{"dup"}}})
	a.Scheduler = schedule.Stats{Submitted: 3, Executed: 1, MemHits: 2}

	jsonPath := filepath.Join(dir, "a.json")
	if err := a.WriteJSON(jsonPath); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var back Artifact
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Name != "test" || len(back.Tables) != 2 || back.Scheduler.MemHits != 2 {
		t.Fatalf("round-trip mangled the artifact: %+v", back)
	}

	csvDir := filepath.Join(dir, "csv")
	if err := a.WriteCSV(csvDir); err != nil {
		t.Fatal(err)
	}
	first, err := os.ReadFile(filepath.Join(csvDir, "figure_3_16-core_workloads.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(first), "rank,ADAPT_bp32") || !strings.Contains(string(first), "1,1.010") {
		t.Fatalf("csv content wrong:\n%s", first)
	}
	if _, err := os.Stat(filepath.Join(csvDir, "figure_3_16-core_workloads_2.csv")); err != nil {
		t.Fatal("duplicate-title table not disambiguated:", err)
	}
}

func TestSlugify(t *testing.T) {
	cases := map[string]string{
		"Figure 3 — 16-core workloads": "figure_3_16-core_workloads",
		"Table 2 — hardware cost":      "table_2_hardware_cost",
		"  odd!!title  ":               "odd_title",
	}
	for in, want := range cases {
		if got := slugify(in); got != want {
			t.Errorf("slugify(%q) = %q, want %q", in, got, want)
		}
	}
}
