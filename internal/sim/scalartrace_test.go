package sim

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/trace"
)

// scalarGen hides a generator's BatchGenerator capability, so the core
// refills its op ring through scalar Next.
type scalarGen struct{ trace.Generator }

// newScalar builds the machine NewFromNames builds, from the same
// generators, but with every core refilling through scalar Next.
func newScalar(cfg Config, names []string) *System {
	specs := make([]bench.Spec, len(names))
	for i, n := range names {
		specs[i] = bench.MustByName(n)
	}
	gens := specGenerators(cfg, specs)
	for i, g := range gens {
		gens[i] = scalarGen{g}
	}
	return New(cfg, gens)
}

// TestBatchedTracesMatchScalar pins batched trace delivery through a whole
// machine: a mix run through the generators' NextBatch loops must produce
// the bit-identical Result of the same mix refilled through scalar Next.
// The +burst mix covers MarkovBurst's own batched path (threshold-compare
// phase transitions over the inner generator's batch).
func TestBatchedTracesMatchScalar(t *testing.T) {
	for _, tc := range []struct {
		name string
		mix  []string
	}{
		{"calm", []string{"calc", "mcf", "libq", "lbm"}},
		{"burst", []string{"libq+burst", "lbm+burst", "mcf+burst", "STRM+burst"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.name == "burst" && testing.Short() {
				t.Skip("the burst mix runs a second machine pair; skipped in -short")
			}
			cfg := quickConfig(len(tc.mix))
			want := newScalar(cfg, tc.mix).Run(10_000, 40_000).Fingerprint()
			if got := NewFromNames(cfg, tc.mix).Run(10_000, 40_000).Fingerprint(); got != want {
				t.Fatalf("batched trace delivery changed the result:\n  got  %s\n  want %s\n"+
					"NextBatch must emit the scalar Next stream — this is a trace-"+
					"delivery bug, not a golden to re-pin.", got, want)
			}
		})
	}
}
