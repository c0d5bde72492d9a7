package experiments

import (
	"testing"

	"repro/internal/bench"
)

// TestTable4ClaimTiny makes the Table 4 finding build-breaking at Tiny, the
// options behind `paperfig -table 4 -tiny`:
//
//   - every measured class is what the paper's Table 5 rule gives for the
//     paper's own row (Fpn(A) and L2-MPKI), on all 38 benchmarks;
//   - the paper's printed class column therefore matches on 36 of 38. The
//     two misses are hmm and astar, where the printed column contradicts
//     the paper's own Table 5 rule (see bench.Spec.PaperClass); EXPERIMENTS.md
//     records them as a documented deviation;
//   - the thrashers cact, lbm and STRM measure VH.
//
// Run with -v to log the table.
func TestTable4ClaimTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("38 solo simulations")
	}
	rows := Table4(Tiny())
	if len(rows) != 38 {
		t.Fatalf("%d rows, want 38", len(rows))
	}
	rule, printed := 0, 0
	for _, r := range rows {
		spec := bench.MustByName(r.Name)
		t.Logf("%-7s Fpn(A) %6.2f (paper %5.2f)  Fpn(S) %6.2f  L2-MPKI %6.2f (paper %6.2f)  %-2s paper %s",
			r.Name, r.FpnAll, spec.Fpn, r.FpnSamp, r.L2MPKI, spec.L2MPKI, r.Measured, r.Paper)
		if want := bench.Classify(spec.Fpn, spec.L2MPKI); r.Measured == want {
			rule++
		} else {
			t.Errorf("%s measures %s; the Table 5 rule on the paper's row gives %s", r.Name, r.Measured, want)
		}
		if r.Measured == r.Paper {
			printed++
		} else if r.Name != "hmm" && r.Name != "astar" {
			t.Errorf("%s measures %s; the paper prints %s", r.Name, r.Measured, r.Paper)
		}
		switch r.Name {
		case "cact", "lbm", "STRM":
			if r.Measured != bench.VeryHigh {
				t.Errorf("thrasher %s measures %s, want VH", r.Name, r.Measured)
			}
		}
	}
	if rule != 38 || printed != 36 {
		t.Errorf("classes match the rule on %d/38 and the printed column on %d/38, want 38 and 36", rule, printed)
	}
}
