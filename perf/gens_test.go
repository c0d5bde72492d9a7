package main

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/trace"
)

func TestReplayGenReemitsCapturedStream(t *testing.T) {
	cfg := sim.Scale(sim.DefaultConfig(2), 64)
	gens := specGenerators(cfg, []string{"mcf", "lbm"})
	for i, g := range gens {
		cg := &countingGen{g: g, capture: 1000}
		batch := make([]trace.Op, 64)
		var want []trace.Op
		var instr uint64
		for len(want) < 1200 {
			cg.NextBatch(batch)
			want = append(want, batch...)
		}
		for _, op := range want {
			instr += op.Instructions()
		}
		if cg.ops != uint64(len(want)) || cg.instr != instr {
			t.Fatalf("core %d: counted %d ops / %d instr, want %d / %d", i, cg.ops, cg.instr, len(want), instr)
		}
		if len(cg.captured) != 1000 {
			t.Fatalf("core %d: captured %d ops, want 1000", i, len(cg.captured))
		}

		// Op for op through NextBatch (crossing the wrap-around) and Next.
		rg := &replayGen{ops: cg.captured}
		got := make([]trace.Op, 2500)
		rg.NextBatch(got[:1700])
		for k := 1700; k < len(got); k++ {
			rg.Next(&got[k])
		}
		for k, op := range got {
			if op != want[k%1000] {
				t.Fatalf("core %d: replayed op %d = %+v, want %+v", i, k, op, want[k%1000])
			}
			if rg.at(uint64(k)) != op {
				t.Fatalf("core %d: at(%d) disagrees with the emitted op", i, k)
			}
		}
		if rg.drawn != uint64(len(got)) {
			t.Fatalf("core %d: drawn = %d, want %d", i, rg.drawn, len(got))
		}
	}
}

// The benchmark hands sim.New its own (wrapped) generators; the machine it
// simulates must be exactly the one sim.NewFromNames builds.
func TestWrappedGeneratorsSimulateTheSameJob(t *testing.T) {
	cfg := sim.Scale(sim.DefaultConfig(4), 64)
	cfg.Seed, cfg.PolicyOpt.Seed = 7, 7
	names := []string{"calc", "mcf", "libq", "lbm"}
	want := sim.NewFromNames(cfg, names).Run(2_000, 10_000).Fingerprint()

	gens := specGenerators(cfg, names)
	for i, g := range gens {
		gens[i] = &countingGen{g: g, timed: true, capture: 100}
	}
	if got := sim.New(cfg, gens).Run(2_000, 10_000).Fingerprint(); got != want {
		t.Fatalf("wrapped run fingerprint %s, want %s", got, want)
	}
}
