package main

import (
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/sim"
)

func baseOpt() experiments.Options {
	return experiments.Options{
		Scale:        8,
		MaxWorkloads: 20,
		WarmupInstr:  150_000,
		MeasureInstr: 600_000,
		Seed:         42,
		Parallelism:  3,
	}
}

// TestFidelityConflictRejected pins the -full -tiny fix: the combination
// used to let -tiny win silently; it must now fail loudly.
func TestFidelityConflictRejected(t *testing.T) {
	_, err := fidelityOptions(baseOpt(), true, true, nil)
	if err == nil {
		t.Fatal("-full -tiny accepted; -tiny used to win silently")
	}
	if !strings.Contains(err.Error(), "mutually exclusive") {
		t.Errorf("conflict error %q does not name the exclusivity", err)
	}
}

func TestFidelityPresetsAndOverrides(t *testing.T) {
	// No preset: the flag-built options pass through untouched.
	if got, err := fidelityOptions(baseOpt(), false, false, nil); err != nil || got != baseOpt() {
		t.Fatalf("no-preset passthrough: got %+v, err %v", got, err)
	}

	// -tiny: preset fidelity, but -parallel and sampling carry over.
	in := baseOpt()
	in.Sample = sim.SampleConfig{Windows: 8}
	got, err := fidelityOptions(in, false, true, map[string]bool{})
	if err != nil {
		t.Fatal(err)
	}
	want := experiments.Tiny()
	want.Parallelism = in.Parallelism
	want.Sample = in.Sample
	if got != want {
		t.Errorf("-tiny: got %+v, want %+v", got, want)
	}

	// -full -seed 7: the explicitly-passed flag overrides the preset.
	in = baseOpt()
	in.Seed = 7
	got, err = fidelityOptions(in, true, false, map[string]bool{"seed": true})
	if err != nil {
		t.Fatal(err)
	}
	if got.Seed != 7 {
		t.Errorf("-full -seed 7: seed = %d, want 7", got.Seed)
	}
	if got.MeasureInstr != experiments.Paper().MeasureInstr {
		t.Errorf("-full -seed 7: measure = %d, want the Paper preset %d", got.MeasureInstr, experiments.Paper().MeasureInstr)
	}
}

func TestSampleOptions(t *testing.T) {
	// -sample alone: default window count.
	sc, err := sampleOptions(true, 0, 0, 0)
	if err != nil || sc.Windows != sim.DefaultSampleWindows {
		t.Errorf("-sample: got %+v, err %v, want %d windows", sc, err, sim.DefaultSampleWindows)
	}
	// -sample-windows alone implies sampling.
	sc, err = sampleOptions(false, 6, 0, 0)
	if err != nil || sc.Windows != 6 {
		t.Errorf("-sample-windows 6: got %+v, err %v", sc, err)
	}
	// Window geometry without an enabling flag is rejected.
	if _, err = sampleOptions(false, 0, 1000, 0); err == nil {
		t.Error("-sample-detail without -sample accepted")
	}
	// Everything off: the zero config (detailed engine).
	if sc, err = sampleOptions(false, 0, 0, 0); err != nil || sc.Enabled() {
		t.Errorf("no sampling flags: got %+v, err %v", sc, err)
	}
}
