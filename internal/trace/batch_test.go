package trace

import (
	"testing"

	"repro/internal/rng"
)

// scalarOnly strips the BatchGenerator capability from a generator, forcing
// FillBatch onto its generic scalar fallback.
type scalarOnly struct{ g Generator }

func (s scalarOnly) Next(op *Op) { s.g.Next(op) }
func (s scalarOnly) Reset()      { s.g.Reset() }

// batchFamilies builds one instance of every generator family plus its
// MarkovBurst-wrapped variant, including a wrapper around a scalar-only
// inner (the FillBatch fallback path inside MarkovBurst.NextBatch).
func batchFamilies() map[string]func() Generator {
	bp := BurstParams{CalmMemRatio: 0.1, BurstMemRatio: 0.6, CalmOps: 48, BurstOps: 16}
	fams := map[string]func() Generator{
		"workingset": func() Generator { return NewWorkingSet(params(0.3, 5), 4096, 0.1, 0.7) },
		"cyclic":     func() Generator { return NewCyclicStride(params(0.3, 5), 4096, 3) },
		"stream":     func() Generator { return NewStream(params(0.3, 5), 1<<20) },
		"mixedscan":  func() Generator { return NewMixedScan(params(0.3, 5), 64, 8, 32, 1<<16) },
	}
	out := map[string]func() Generator{}
	for name, mk := range fams {
		mk := mk
		out[name] = mk
		out[name+"+burst"] = func() Generator { return NewMarkovBurst(mk(), bp, 0xBEEF) }
	}
	out["workingset+burst-scalar-inner"] = func() Generator {
		return NewMarkovBurst(scalarOnly{fams["workingset"]()}, bp, 0xBEEF)
	}
	// Zero write ratio exercises writer.fill's no-draw branch.
	pz := params(0.3, 5)
	pz.WriteRatio = 0
	out["stream-no-writes"] = func() Generator { return NewStream(pz, 1<<20) }
	return out
}

// TestNextBatchMatchesScalar is the core proof obligation of the batched
// delivery path: for every family and its burst wrapper, NextBatch over
// randomized batch sizes — interleaved with scalar Next calls and Resets at
// random points — must reproduce the scalar reference stream op for op.
func TestNextBatchMatchesScalar(t *testing.T) {
	const total = 20000
	for name, mk := range batchFamilies() {
		t.Run(name, func(t *testing.T) {
			ref := mk()
			want := collect(ref, total)

			got := make([]Op, 0, total)
			g := mk()
			r := rng.New(uint64(len(name)) * 0x9E37)
			var buf [97]Op
			for len(got) < total {
				n := r.Intn(len(buf)) + 1
				if rest := total - len(got); n > rest {
					n = rest
				}
				if r.Intn(4) == 0 {
					// Scalar interleave: NextBatch must continue exactly
					// where Next left off.
					for i := 0; i < n; i++ {
						var op Op
						g.Next(&op)
						got = append(got, op)
					}
					continue
				}
				// Dirty the buffer so stale fields can't fake a pass.
				for i := 0; i < n; i++ {
					buf[i] = Op{Gap: 0xDEAD, Addr: ^uint64(0), Write: true, PC: 0xDEAD}
				}
				FillBatch(g, buf[:n])
				got = append(got, buf[:n]...)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s: batched stream diverges at op %d: got %+v, want %+v", name, i, got[i], want[i])
				}
			}

			// Reset interleaving: a Reset mid-stream must restart both paths
			// identically, regardless of how much of a batch was consumed.
			g.Reset()
			ref.Reset()
			for round := 0; round < 5; round++ {
				n := r.Intn(len(buf)) + 1
				FillBatch(g, buf[:n])
				for i := 0; i < n; i++ {
					var op Op
					ref.Next(&op)
					if buf[i] != op {
						t.Fatalf("%s: post-Reset round %d diverges at op %d: got %+v, want %+v", name, round, i, buf[i], op)
					}
				}
				g.Reset()
				ref.Reset()
			}
		})
	}
}

// TestFillBatchScalarFallback pins the generic adapter: a generator without
// the BatchGenerator capability must be driven by plain Next calls.
func TestFillBatchScalarFallback(t *testing.T) {
	base := func() Generator { return NewWorkingSet(params(0.3, 9), 2048, 0.1, 0.7) }
	ref := base()
	want := collect(ref, 500)
	wrapped := scalarOnly{base()}
	if _, ok := Generator(wrapped).(BatchGenerator); ok {
		t.Fatal("scalarOnly must not satisfy BatchGenerator")
	}
	got := make([]Op, 500)
	FillBatch(wrapped, got[:250])
	FillBatch(wrapped, got[250:])
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fallback diverges at op %d", i)
		}
	}
}

// TestAllFamiliesImplementBatchGenerator keeps the capability from silently
// rotting off a family: every constructor in this package must return a
// BatchGenerator.
func TestAllFamiliesImplementBatchGenerator(t *testing.T) {
	gens := map[string]Generator{
		"workingset": NewWorkingSet(params(0.3, 1), 64, 0.1, 0.5),
		"cyclic":     NewCyclic(params(0.3, 1), 64),
		"stream":     NewStream(params(0.3, 1), 64),
		"mixedscan":  NewMixedScan(params(0.3, 1), 16, 4, 8, 64),
		"markov": NewMarkovBurst(NewStream(params(0.3, 1), 64),
			BurstParams{CalmMemRatio: 0.2, BurstMemRatio: 0.5, CalmOps: 8, BurstOps: 4}, 1),
	}
	for name, g := range gens {
		if _, ok := g.(BatchGenerator); !ok {
			t.Errorf("%s does not implement BatchGenerator", name)
		}
	}
}
