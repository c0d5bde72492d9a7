package experiments

import (
	"fmt"

	"repro/internal/arbiter"
	"repro/internal/mem"
)

// Substrate-fidelity tables: the contention record of the shared fabric
// under each policy, from the timeline-native substrate's new metrics —
// the full arbiter-wait distribution (AppResult.ArbiterWaitHist) and the
// per-bank DRAM row counters (Result.DRAMBanks). Together with
// ArbiterWaitTable (means) they are the evidence that insertion-policy
// deltas, not substrate artifacts, drive the headline figures.

// WaitHistTable renders the arbiter-wait distribution under each listed
// policy, aggregated over every app and mix of the study: one row per
// fixed power-of-two bucket, cells are the percentage of LLC requests
// whose queueing delay fell in the bucket, plus a total-requests row.
// Means are insensitive to gap correlation; the tail rows are what
// LFOC+-style fairness accounting compares across calm/burst mixes.
func (s StudyRuns) WaitHistTable(title string, keys []string) Table {
	hists := map[string]*[arbiter.WaitBuckets]uint64{}
	for _, k := range keys {
		var agg [arbiter.WaitBuckets]uint64
		for _, run := range s.ByPolicy[k] {
			for _, app := range run.Result.Apps {
				for b, c := range app.ArbiterWaitHist {
					agg[b] += c
				}
			}
		}
		hists[k] = &agg
	}
	totals := map[string]uint64{}
	for _, k := range keys {
		var n uint64
		for _, c := range hists[k] {
			n += c
		}
		totals[k] = n
	}

	t := Table{
		Title:  title,
		Note:   "share of LLC requests per VPC-arbiter queueing-delay bucket (cycles), all apps and mixes",
		Header: append([]string{"wait"}, keys...),
	}
	for b := 0; b < arbiter.WaitBuckets; b++ {
		row := []string{arbiter.BucketLabel(b)}
		empty := true
		for _, k := range keys {
			c := hists[k][b]
			if c > 0 {
				empty = false
			}
			if totals[k] > 0 {
				row = append(row, fmt.Sprintf("%.3f%%", 100*float64(c)/float64(totals[k])))
			} else {
				row = append(row, "-")
			}
		}
		// Keep the table dense: drop all-zero interior buckets but always
		// print the first and last so the bucket scheme stays visible.
		if empty && b != 0 && b != arbiter.WaitBuckets-1 {
			continue
		}
		t.Rows = append(t.Rows, row)
	}
	reqRow := []string{"requests"}
	for _, k := range keys {
		reqRow = append(reqRow, fmt.Sprintf("%d", totals[k]))
	}
	t.Rows = append(t.Rows, reqRow)
	return t
}

// bankAggregates sums each policy's per-bank DRAM counters over the
// study's mixes, preserving bank order.
func (s StudyRuns) bankAggregates(keys []string) map[string][]mem.BankStats {
	out := map[string][]mem.BankStats{}
	for _, k := range keys {
		var agg []mem.BankStats
		for _, run := range s.ByPolicy[k] {
			if agg == nil {
				agg = make([]mem.BankStats, len(run.Result.DRAMBanks))
			}
			for b, bs := range run.Result.DRAMBanks {
				agg[b].Add(bs)
			}
		}
		out[k] = agg
	}
	return out
}

// RowStateTable renders the per-bank DRAM row-buffer locality under each
// listed policy: one row per bank plus an all-banks summary, cells are the
// bank's row-hit rate over the study's mixes. Defensible as a measured
// claim because row hit/miss is decided on the reservation timeline — the
// row open at each access's reserved service time — not in presentation
// order.
func (s StudyRuns) RowStateTable(title string, keys []string) Table {
	agg := s.bankAggregates(keys)
	banks := 0
	for _, k := range keys {
		if len(agg[k]) > banks {
			banks = len(agg[k])
		}
	}
	t := Table{
		Title:  title,
		Note:   "row-hit rate per DRAM bank (reservation-timeline row state), all apps and mixes",
		Header: append([]string{"bank"}, keys...),
	}
	cell := func(bs mem.BankStats) string {
		if bs.Accesses == 0 {
			return "-"
		}
		return f3(bs.RowHitRate())
	}
	for b := 0; b < banks; b++ {
		row := []string{itoa(b)}
		for _, k := range keys {
			if b < len(agg[k]) {
				row = append(row, cell(agg[k][b]))
			} else {
				row = append(row, "-")
			}
		}
		t.Rows = append(t.Rows, row)
	}
	all := []string{"all"}
	for _, k := range keys {
		var sum mem.BankStats
		for _, bs := range agg[k] {
			sum.Add(bs)
		}
		all = append(all, cell(sum))
	}
	t.Rows = append(t.Rows, all)
	return t
}
