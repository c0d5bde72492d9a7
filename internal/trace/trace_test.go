package trace

import (
	"math"
	"testing"
)

func params(memRatio float64, seed uint64) Params {
	return Params{Base: 1 << 30, MemRatio: memRatio, WriteRatio: 0.3, PCBase: 0x400000, Seed: seed}
}

func collect(g Generator, n int) []Op {
	ops := make([]Op, n)
	for i := range ops {
		g.Next(&ops[i])
	}
	return ops
}

func TestParamsValidate(t *testing.T) {
	if err := params(0.3, 1).Validate(); err != nil {
		t.Fatalf("valid params rejected: %v", err)
	}
	bad := []Params{
		{MemRatio: 0},
		{MemRatio: 1.5},
		{MemRatio: 0.3, WriteRatio: -0.1},
		{MemRatio: 0.3, WriteRatio: 1.1},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d accepted: %+v", i, p)
		}
	}
}

func TestGapperMeanMatchesMemRatio(t *testing.T) {
	for _, r := range []float64{0.05, 0.2, 0.5} {
		g := newGapper(r, 7)
		var sum float64
		const n = 50000
		for i := 0; i < n; i++ {
			sum += float64(g.next())
		}
		wantMean := (1 - r) / r
		got := sum / n
		if math.Abs(got-wantMean) > 0.05*wantMean+0.05 {
			t.Fatalf("memRatio %v: mean gap %.3f, want %.3f", r, got, wantMean)
		}
	}
}

func TestWriterRatio(t *testing.T) {
	w := newWriter(0.3, 9)
	writes := 0
	const n = 20000
	for i := 0; i < n; i++ {
		if w.next() {
			writes++
		}
	}
	if frac := float64(writes) / n; math.Abs(frac-0.3) > 0.02 {
		t.Fatalf("write fraction %.3f, want 0.30", frac)
	}
	z := newWriter(0, 9)
	for i := 0; i < 100; i++ {
		if z.next() {
			t.Fatal("zero write ratio produced a write")
		}
	}
}

func TestDeterminismAndReset(t *testing.T) {
	gens := map[string]func() Generator{
		"workingset": func() Generator { return NewWorkingSet(params(0.3, 5), 4096, 0.1, 0.7) },
		"cyclic":     func() Generator { return NewCyclic(params(0.3, 5), 4096) },
		"stream":     func() Generator { return NewStream(params(0.3, 5), 1<<20) },
		"mixedscan":  func() Generator { return NewMixedScan(params(0.3, 5), 64, 8, 32, 1<<16) },
	}
	for name, mk := range gens {
		a, b := mk(), mk()
		opsA, opsB := collect(a, 2000), collect(b, 2000)
		for i := range opsA {
			if opsA[i] != opsB[i] {
				t.Fatalf("%s: two instances with same seed diverge at op %d", name, i)
			}
		}
		a.Reset()
		opsA2 := collect(a, 2000)
		for i := range opsA2 {
			if opsA2[i] != opsA[i] {
				t.Fatalf("%s: Reset did not restore the stream (op %d)", name, i)
			}
		}
	}
}

func TestAddressesStayInRegion(t *testing.T) {
	base := uint64(1 << 30)
	cases := []struct {
		name   string
		gen    Generator
		blocks uint64
	}{
		{"workingset", NewWorkingSet(params(0.3, 1), 1000, 0.1, 0.5), 1000},
		{"cyclic", NewCyclic(params(0.3, 1), 1000), 1000},
		{"stream", NewStream(params(0.3, 1), 1000), 1000},
	}
	for _, c := range cases {
		for _, op := range collect(c.gen, 5000) {
			if op.Addr < base || op.Addr >= base+c.blocks {
				t.Fatalf("%s: address %#x outside [base, base+%d)", c.name, op.Addr, c.blocks)
			}
		}
	}
}

func TestCyclicSweepsEveryBlock(t *testing.T) {
	const ws = 256
	g := NewCyclic(params(0.5, 2), ws)
	seen := map[uint64]int{}
	for _, op := range collect(g, ws*3) {
		seen[op.Addr]++
	}
	if len(seen) != ws {
		t.Fatalf("cyclic visited %d distinct blocks, want %d", len(seen), ws)
	}
	for addr, n := range seen {
		if n != 3 {
			t.Fatalf("block %#x visited %d times, want exactly 3", addr, n)
		}
	}
}

func TestStreamNeverRepeatsWithinRegion(t *testing.T) {
	g := NewStream(params(0.5, 3), 100000)
	seen := map[uint64]bool{}
	for _, op := range collect(g, 50000) {
		if seen[op.Addr] {
			t.Fatalf("stream repeated address %#x within the region", op.Addr)
		}
		seen[op.Addr] = true
	}
}

func TestWorkingSetHotBias(t *testing.T) {
	const ws, hotFrac = 10000, 0.05
	g := NewWorkingSet(params(0.3, 4), ws, hotFrac, 0.8)
	hot := uint64(float64(ws) * hotFrac)
	base := uint64(1 << 30)
	inHot := 0
	const n = 50000
	for _, op := range collect(g, n) {
		if op.Addr-base < hot {
			inHot++
		}
	}
	// 80% explicit hot probability + hot region's share of uniform draws.
	frac := float64(inHot) / n
	if frac < 0.75 || frac > 0.9 {
		t.Fatalf("hot fraction %.3f, want ~0.81", frac)
	}
}

func TestMixedScanPhaseStructure(t *testing.T) {
	const hot, k, scanLen = 16, 8, 24
	g := NewMixedScan(params(0.3, 6), hot, k, scanLen, 1<<16)
	base := uint64(1 << 30)
	ops := collect(g, (k+scanLen)*10)
	for i := 0; i < 10; i++ {
		phase := ops[i*(k+scanLen) : (i+1)*(k+scanLen)]
		for j := 0; j < k; j++ {
			if phase[j].Addr-base >= hot {
				t.Fatalf("cycle %d op %d: expected hot access, got %#x", i, j, phase[j].Addr)
			}
		}
		for j := k; j < k+scanLen; j++ {
			if phase[j].Addr-base < hot {
				t.Fatalf("cycle %d op %d: expected scan access, got hot", i, j)
			}
		}
	}
}

func TestOpInstructions(t *testing.T) {
	op := Op{Gap: 9}
	if op.Instructions() != 10 {
		t.Fatalf("Instructions() = %d, want 10", op.Instructions())
	}
}

func TestConstructorsPanicOnBadInput(t *testing.T) {
	cases := []func(){
		func() { NewWorkingSet(params(0.3, 1), 0, 0.1, 0.5) },
		func() { NewCyclic(params(0.3, 1), 0) },
		func() { NewStream(params(0.3, 1), 0) },
		func() { NewMixedScan(params(0.3, 1), 0, 8, 32, 100) },
		func() { NewCyclic(Params{MemRatio: 0}, 100) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			f()
		}()
	}
}
