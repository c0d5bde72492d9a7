package main

import (
	"testing"
	"time"
)

// Every round does the same work: it starts from the kernel's initial state.
func TestCalibrationRoundsRepeat(t *testing.T) {
	k := newCalKernel()
	k.round()
	first := k.sink
	k.round()
	if k.sink != 2*first {
		t.Fatalf("second round added %d, first %d", k.sink-first, first)
	}
}

// sample times a round at once and one per calEvery until it is stopped.
func TestCalibrationSample(t *testing.T) {
	stop := newCalKernel().sample(firstCPU())
	time.Sleep(calEvery + calEvery/2)
	rounds := stop()
	if len(rounds) < 1 || len(rounds) > 2 {
		t.Fatalf("%d rounds in 1.5 periods, want 2 (1 on a host too busy to finish the first in time)", len(rounds))
	}
	for i, s := range rounds {
		if !(s > 0) {
			t.Errorf("round %d took %v s", i, s)
		}
	}
}

// Host times are multiplied by their rep's speed and rates per host second
// divided by it; sizes are left alone.
func TestAssembleScalesHostTimes(t *testing.T) {
	rep := repRun{
		UserCPU:  4,
		MaxRSSMB: 10,
		Speed:    0.5,
		Report:   repReport{SetupS: 0.002, DetInst: 80e6, DetRunS: 2},
	}
	got := assemble([]repRun{rep}, nil)
	for name, want := range map[string]float64{
		"run_cpu_s":        2,
		"setup_s":          0.001,
		"sim_minstr_per_s": 80,
		"max_rss_mb":       10,
	} {
		if got[name].Value != want {
			t.Errorf("%s = %v, want %v", name, got[name].Value, want)
		}
	}
}
