package sim

import "testing"

// Golden-fingerprint corpus: sim.Result.Fingerprint locked for a small
// canonical grid of (mix, policy) runs at tiny fidelity. The simulator is a
// pure function of its Config and workload, so these digests are stable
// across parallelism, batch caps, scheduler interleaving and host — any
// change here means the simulation semantics changed.
//
// If a change is INTENTIONAL (a timing-model fix, a policy behaviour
// change), bump the goldens deliberately: re-run with
//
//	go test ./internal/sim -run TestGoldenFingerprints -v
//
// paste the printed "got" digests below, and bump schedule.KeySchema in the
// same commit so stale disk-cache entries strand instead of mixing with the
// new semantics. A golden change with no schema bump is a review error.
// Digest provenance: re-pinned for the fairness clustering layer
// (internal/cluster) — AppResult grew the Cluster/ClusterWays fields, whose
// names participate in the result digest, so every fingerprint moved even
// for unclustered configs; the two cluster-mode rows additionally pin the
// classifier + way-mask enforcement semantics. A deliberate bump, paired
// with schedule.KeySchema job/v5 in the same commit. Unchanged at job/v6
// (the pool's stall tie rule): no corpus run meets a tied stall whose
// choice changes a later answer.
var goldenFingerprints = []struct {
	name    string
	names   []string
	policy  string
	cluster bool // enable the LFOC clustering layer (epoch 2048)
	want    string
}{
	// Mix A: one app per intensity band (VL compute, M mixed-scan, H cyclic
	// thrasher, VH stream) — the composition the paper's studies stress.
	{"mixA/tadrrip", []string{"calc", "mcf", "libq", "lbm"}, "tadrrip", false,
		"a6959dc653108c03c062968a54cdc516f6f4f03888f5a578df3bb7dc3ee14bc6"},
	{"mixA/ship", []string{"calc", "mcf", "libq", "lbm"}, "ship", false,
		"f78fd6f6e6b3be20a8b925df33181eeb8501c83b3467923751a2c4e56edd4022"},
	{"mixA/adapt", []string{"calc", "mcf", "libq", "lbm"}, "adapt", false,
		"fdf5d1353cb0ec27fc569f7bc2bbb27fdf804780566604af272a0d25b5b6386a"},
	// Mix B: recency-friendly apps against two streams — the case where
	// discrete insertion policies must protect the friendly working sets.
	{"mixB/tadrrip", []string{"art", "gcc", "STRM", "milc"}, "tadrrip", false,
		"2aa1701fb097eccc3b0411b0c83bb83537482bdf56dbc1649156f3db55e00387"},
	{"mixB/ship", []string{"art", "gcc", "STRM", "milc"}, "ship", false,
		"f3d92cd3bae543f77a9b9b13eee96a0dea7d7ff18b18295e47d718615258e135"},
	{"mixB/adapt", []string{"art", "gcc", "STRM", "milc"}, "adapt", false,
		"2638a7e79309f26b4299a4b4d10749e88cc957f9a16f83daf8374326f3546b9b"},
	// Both mixes under the LFOC clustering layer: pins the online
	// classifier's decisions and the masked victim selection, under the
	// same policy engine the unclustered rows exercise.
	{"mixA/cluster", []string{"calc", "mcf", "libq", "lbm"}, "tadrrip", true,
		"f25a8fa6cadc28b82fb6d9faad7f5930876c7c76836444c0ba8e6a7e57aff77f"},
	{"mixB/cluster", []string{"art", "gcc", "STRM", "milc"}, "tadrrip", true,
		"e93f60f1a03b864726738530fc0061bcc4d738fc2411eda35b8b9414e4b7616c"},
	// Mix A under true LRU, unmasked and under the clustering layer: the
	// only rows whose LLC runs LRU (every L1 is LRU, but 8-way and never
	// masked), so they pin LRU's 16-way victim and its masked victim path.
	{"mixA/lru", []string{"calc", "mcf", "libq", "lbm"}, "lru", false,
		"5ecb29f92f1fc6382e915a6929fbea83b1fc216a30bacb58d962ab2d8c608c20"},
	{"mixA/lru-cluster", []string{"calc", "mcf", "libq", "lbm"}, "lru", true,
		"b2a410b7922dde20a15d279ab6487091d9c61fa48b84327173bd3bb71c4dbad5"},
	// Sixteen streaming apps: the only row that contends all eight DRAM
	// banks, so it pins the order of DRAM reads, dirty-victim drains and
	// write-throughs on a loaded substrate.
	{"mix16stream/adapt", streaming16, "adapt", false,
		"b404c152fc791f4d0cd150eec20c0fdbed7f27d642fe27e06e7375389f710179"},
}

// streaming16 is the all-streaming 16-core mix of the golden corpora.
var streaming16 = []string{
	"lbm", "STRM", "libq", "milc", "lbm", "STRM", "libq", "milc",
	"lbm", "STRM", "libq", "milc", "lbm", "STRM", "libq", "milc",
}

// goldenConfig is the canonical tiny-fidelity machine of the corpus. Any
// field change here invalidates every golden above, which is the point:
// the corpus pins (config, workload, budgets) -> bits.
func goldenConfig(cores int, policy string) Config {
	cfg := Scale(DefaultConfig(cores), 64)
	cfg.Seed = 42
	cfg.PolicyOpt.Seed = 42
	cfg.LLCPolicy = policy
	return cfg
}

func TestGoldenFingerprints(t *testing.T) {
	for _, tc := range goldenFingerprints {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel() // the corpus must agree under any -parallel value
			cfg := goldenConfig(len(tc.names), tc.policy)
			if tc.cluster {
				cfg = clusterTestConfig(len(tc.names), tc.policy)
			}
			res := NewFromNames(cfg, tc.names).Run(20_000, 80_000)
			got := res.Fingerprint()
			if tc.want == "" {
				t.Fatalf("golden not set; got %s", got)
			}
			if got != tc.want {
				t.Errorf("fingerprint drift:\n  got  %s\n  want %s\n"+
					"Simulation semantics changed for an unchanged config. If this is "+
					"intentional, bump the goldens deliberately (see the comment on "+
					"goldenFingerprints) and bump schedule.KeySchema in the same commit.",
					got, tc.want)
			}
		})
	}
}
