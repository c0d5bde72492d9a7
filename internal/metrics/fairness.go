package metrics

// Fairness metrics for the clustering-vs-insertion comparison (LFOC/LFOC+,
// see internal/cluster). All of them are functions of the per-application
// slowdown vector, the standard multi-programmed fairness primitive:
//
//	slowdown_i = IPC_alone[i] / IPC_shared[i]   (>= 1 under contention)
//
// An application with no valid solo or shared IPC (zero either way)
// contributes no slowdown — filtering beats poisoning every aggregate with
// an infinity. EXPERIMENTS.md ("Fairness & contention metrics") documents
// each formula next to the tables that print it.

// Slowdowns returns the per-application slowdown vector
// IPC_alone[i] / IPC_shared[i]. Entries where either IPC is non-positive
// are 0 (meaning "no measurement", not "no slowdown") and are ignored by
// the aggregates below.
func Slowdowns(shared, alone []float64) []float64 {
	mustSameLen(shared, alone)
	out := make([]float64, len(shared))
	for i := range shared {
		if shared[i] > 0 && alone[i] > 0 {
			out[i] = alone[i] / shared[i]
		}
	}
	return out
}

// Unfairness returns the unfairness factor max_i slowdown_i / min_i
// slowdown_i (Mutlu & Moscibroda's metric): 1.0 is perfectly fair — every
// application suffers equally — and larger is worse. Zero-slowdown entries
// (unmeasured apps) are skipped; fewer than one valid entry yields 0.
func Unfairness(shared, alone []float64) float64 {
	min, max := 0.0, 0.0
	for _, s := range Slowdowns(shared, alone) {
		if s <= 0 {
			continue
		}
		if min == 0 || s < min {
			min = s
		}
		if s > max {
			max = s
		}
	}
	if min == 0 {
		return 0
	}
	return max / min
}

// MaxSlowdown returns the worst per-application slowdown — the fairness
// tail the unfairness factor normalizes away.
func MaxSlowdown(shared, alone []float64) float64 {
	max := 0.0
	for _, s := range Slowdowns(shared, alone) {
		if s > max {
			max = s
		}
	}
	return max
}

// FairnessReport bundles the fairness aggregates for one workload under one
// policy, ready for table emission.
type FairnessReport struct {
	Unfairness  float64   // max/min slowdown; 1.0 = perfectly fair
	MaxSlowdown float64   // worst single-app slowdown
	HWSpeedup   float64   // harmonic weighted speedup, n / Σ slowdown
	WSpeedup    float64   // plain weighted speedup (throughput reference)
	Slowdowns   []float64 // per-app slowdown vector (0 = unmeasured)
}

// Fairness computes the full report from shared and solo IPC vectors.
func Fairness(shared, alone []float64) FairnessReport {
	return FairnessReport{
		Unfairness:  Unfairness(shared, alone),
		MaxSlowdown: MaxSlowdown(shared, alone),
		HWSpeedup:   HMeanNormalized(shared, alone),
		WSpeedup:    WeightedSpeedup(shared, alone),
		Slowdowns:   Slowdowns(shared, alone),
	}
}
