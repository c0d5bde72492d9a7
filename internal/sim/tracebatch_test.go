package sim

import (
	"fmt"
	"testing"
)

// TestTraceBatchInvariance pins the contract that lets Config.TraceBatch
// stay out of the fingerprint: the trace-delivery batch length is a pure
// execution knob. The same mix run at batch lengths 1 (scalar-equivalent:
// one op drawn per refill), small, default and huge must produce
// bit-identical Results.
func TestTraceBatchInvariance(t *testing.T) {
	mix := []string{"calc", "mcf", "libq", "lbm"}
	baseline := ""
	for _, batch := range []int{1, 2, 64, 1024} {
		batch := batch
		t.Run(fmt.Sprintf("batch=%d", batch), func(t *testing.T) {
			cfg := quickConfig(len(mix))
			cfg.TraceBatch = batch
			got := NewFromNames(cfg, mix).Run(10_000, 40_000).Fingerprint()
			if baseline == "" {
				baseline = got
				return
			}
			if got != baseline {
				t.Fatalf("TraceBatch=%d changed the result:\n  got  %s\n  want %s\n"+
					"Batch length must be invisible in every Result bit — this is a trace-"+
					"delivery bug, not a golden to re-pin.", batch, got, baseline)
			}
		})
	}
}

// TestTraceBatchBurstInvariance runs the same invariance check over +burst
// variants, whose MarkovBurst wrapper has its own batched fast path
// (threshold-compare phase transitions over the inner generator's batch).
func TestTraceBatchBurstInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("burst invariance runs a second mix grid; skipped in -short")
	}
	mix := []string{"libq+burst", "lbm+burst", "mcf+burst", "STRM+burst"}
	baseline := ""
	for _, batch := range []int{1, 64} {
		cfg := quickConfig(len(mix))
		cfg.TraceBatch = batch
		got := NewFromNames(cfg, mix).Run(10_000, 40_000).Fingerprint()
		if baseline == "" {
			baseline = got
			continue
		}
		if got != baseline {
			t.Fatalf("burst mix: TraceBatch=%d changed the result", batch)
		}
	}
}
