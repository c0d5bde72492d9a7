// Package sim assembles the full simulated machine of the paper's Table 3 —
// trace-driven cores, private L1/L2 caches, a banked shared LLC behind a
// VPC arbiter, and DDR2 memory — and runs multi-programmed workloads on it.
//
// The simulator is deterministic: given a Config and a set of generators,
// two runs produce identical results. One simulation runs on one goroutine,
// in the serial (clock, core-index) event order; experiment harnesses use
// more host cores by running independent systems concurrently.
package sim

import (
	"fmt"

	"repro/internal/arbiter"
	"repro/internal/cluster"
	"repro/internal/mem"
	"repro/internal/policy"
)

// Config describes the whole machine. DefaultConfig gives the paper's
// Table 3 parameters; Scale shrinks the caches for fast tests while
// preserving every ratio that matters to the policies.
type Config struct {
	Cores      int
	BlockBytes int

	// L1 data cache (per core).
	L1Sets, L1Ways int
	L1Latency      uint64

	// Unified private L2 (per core).
	L2Sets, L2Ways int
	L2Latency      uint64
	L2Policy       string
	L2MSHRs        int
	L2WBEntries    int

	// Shared LLC.
	LLCSets, LLCWays int
	LLCLatency       uint64
	LLCPolicy        string
	LLCMSHRs         int
	LLCWBEntries     int
	PolicyOpt        policy.Options

	// Core model.
	CPUWidth, CPUROB, CPUMaxOutstanding int

	// Memory and interconnect.
	Mem mem.Config
	Arb arbiter.Config

	// NextLinePrefetch enables the L1 next-line prefetcher of Table 3.
	NextLinePrefetch bool

	// Cluster configures the optional LFOC-style fairness clustering layer
	// above the LLC policy (internal/cluster): online app classification
	// plus per-cluster way partitioning enforced at victim selection. The
	// zero value disables it. Fingerprinted — clustering changes results,
	// so clustered and unclustered runs never share memoized entries.
	Cluster cluster.Config

	// Sample selects the sampled-fidelity execution mode (SMARTS-style
	// periodic sampling with deterministic functional warming); the zero
	// value runs fully detailed. Fingerprinted — a sampled run is an
	// approximation of the detailed reference, so the two must never share
	// memoized results. See SampleConfig.
	Sample SampleConfig

	// Seed feeds policy monitor sampling and anything else stochastic.
	Seed uint64

	// LLCAccessHook, if set, observes every demand access that reaches the
	// LLC (used by the Table 4 footprint-measurement harness). It must not
	// mutate simulator state. Hooks are process-local by nature: they are
	// excluded from the fingerprint (func fields always are) and from the
	// JSON form (encoding/json rejects func fields), and hook-carrying jobs
	// must use the scheduler's uncached path.
	LLCAccessHook func(core, set int, block uint64) `json:"-"`
}

// DefaultConfig returns the paper's Table 3 machine for a core count.
func DefaultConfig(cores int) Config {
	return Config{
		Cores:      cores,
		BlockBytes: 64,

		L1Sets: 64, L1Ways: 8, L1Latency: 3, // 32KB

		L2Sets: 256, L2Ways: 16, L2Latency: 14, // 256KB
		L2Policy: "drrip", L2MSHRs: 32, L2WBEntries: 32,

		LLCSets: 16384, LLCWays: 16, LLCLatency: 24, // 16MB
		LLCPolicy: "tadrrip", LLCMSHRs: 256, LLCWBEntries: 128,

		CPUWidth: 4, CPUROB: 128, CPUMaxOutstanding: 8,

		Mem: mem.Default(),
		Arb: arbiter.Default(cores),

		NextLinePrefetch: true,
		Seed:             1,
	}
}

// Scale divides the cache sizes by factor (sets only; associativities,
// latencies and policies stay fixed), producing a machine that exhibits the
// same sharing pathologies at a fraction of the simulation cost. Benchmark
// working sets scale automatically because they are sized in LLC sets
// (bench.Spec.Generator).
func Scale(cfg Config, factor int) Config {
	if factor <= 1 {
		return cfg
	}
	div := func(v int) int {
		v /= factor
		if v < 8 {
			v = 8
		}
		return v
	}
	cfg.LLCSets = div(cfg.LLCSets)
	cfg.L2Sets = div(cfg.L2Sets)
	cfg.L1Sets = div(cfg.L1Sets)
	return cfg
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.Cores <= 0 {
		return fmt.Errorf("sim: cores must be positive")
	}
	for _, p := range []struct {
		name string
		v    int
	}{
		{"L1Sets", c.L1Sets}, {"L1Ways", c.L1Ways},
		{"L2Sets", c.L2Sets}, {"L2Ways", c.L2Ways},
		{"LLCSets", c.LLCSets}, {"LLCWays", c.LLCWays},
		{"L2MSHRs", c.L2MSHRs}, {"LLCMSHRs", c.LLCMSHRs},
		{"L2WBEntries", c.L2WBEntries}, {"LLCWBEntries", c.LLCWBEntries},
		{"CPUWidth", c.CPUWidth}, {"CPUROB", c.CPUROB},
		{"CPUMaxOutstanding", c.CPUMaxOutstanding},
	} {
		if p.v <= 0 {
			return fmt.Errorf("sim: %s must be positive", p.name)
		}
	}
	if c.LLCPolicy == "" || c.L2Policy == "" {
		return fmt.Errorf("sim: cache policies must be named")
	}
	if err := c.Sample.Validate(); err != nil {
		return err
	}
	if err := c.Mem.Validate(); err != nil {
		return err
	}
	if err := c.Cluster.Validate(c.LLCWays); err != nil {
		return err
	}
	return c.Arb.Validate()
}
