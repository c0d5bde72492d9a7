package timeline

import (
	"testing"

	"repro/internal/rng"
)

func TestTrackAtEmpty(t *testing.T) {
	var tr Track
	if _, ok := tr.At(0); ok {
		t.Fatal("empty track reported a state")
	}
	if _, ok := tr.At(1 << 40); ok {
		t.Fatal("empty track reported a state at a large time")
	}
}

func TestTrackInOrderAndBetween(t *testing.T) {
	tr := NewTrack(0)
	tr.Set(10, 100)
	tr.Set(20, 200)
	tr.Set(30, 300)
	cases := []struct {
		at  uint64
		tag uint64
		ok  bool
	}{
		{9, 0, false},
		{10, 100, true},
		{15, 100, true},
		{20, 200, true},
		{29, 200, true},
		{30, 300, true},
		{1 << 30, 300, true},
	}
	for _, c := range cases {
		tag, ok := tr.At(c.at)
		if ok != c.ok || (ok && tag != c.tag) {
			t.Fatalf("At(%d) = (%d,%v), want (%d,%v)", c.at, tag, ok, c.tag, c.ok)
		}
	}
}

// TestTrackOutOfOrderSetDoesNotRewriteLaterState is the property the DRAM
// row model needs: a mark inserted into an earlier idle gap must govern only
// the span up to the next existing mark, and marks strictly after a query
// time never influence it.
func TestTrackOutOfOrderSetDoesNotRewriteLaterState(t *testing.T) {
	tr := NewTrack(0)
	tr.Set(100, 1)
	tr.Set(50, 2) // presented later, earlier in time
	if tag, ok := tr.At(60); !ok || tag != 2 {
		t.Fatalf("At(60) = (%d,%v), want the out-of-order mark 2", tag, ok)
	}
	if tag, ok := tr.At(100); !ok || tag != 1 {
		t.Fatalf("At(100) = (%d,%v), want the later mark 1 untouched", tag, ok)
	}
	if _, ok := tr.At(49); ok {
		t.Fatal("state reported before the earliest mark")
	}
}

func TestTrackEqualTimeOverwrites(t *testing.T) {
	tr := NewTrack(0)
	tr.Set(7, 1)
	tr.Set(7, 2)
	if tr.Marks() != 1 {
		t.Fatalf("equal-time Set left %d marks, want 1", tr.Marks())
	}
	if tag, _ := tr.At(7); tag != 2 {
		t.Fatalf("At(7) = %d, want the overwriting tag 2", tag)
	}
}

// TestTrackPruneKeepsBaseState checks the floor contract: pruning must not
// change At for any time at or above the new floor, because the newest
// dropped mark survives as the base state.
func TestTrackPruneKeepsBaseState(t *testing.T) {
	const cap = 16
	tr := NewTrack(cap)
	for i := uint64(0); i < cap+1; i++ {
		tr.Set(i*10, i)
	}
	if tr.Floor() == 0 {
		t.Fatal("overflowing the cap did not raise the floor")
	}
	if tr.Marks() > cap {
		t.Fatalf("prune left %d marks above the cap %d", tr.Marks(), cap)
	}
	// Every time at or above the floor answers exactly as the unbounded
	// reference would.
	for at := tr.Floor(); at <= (cap+1)*10; at++ {
		want := at / 10
		if want > cap {
			want = cap
		}
		if tag, ok := tr.At(at); !ok || tag != want {
			t.Fatalf("post-prune At(%d) = (%d,%v), want (%d,true)", at, tag, ok, want)
		}
	}
	// Sets below the floor clamp to it rather than resurrecting history.
	tr.Set(0, 999)
	if tag, _ := tr.At(tr.Floor()); tag != 999 {
		t.Fatal("below-floor Set did not clamp to the floor")
	}
}

// TestTrackRandomAgainstReference drives Set/At with seeded random times
// and checks against a brute-force latest-mark-at-or-before scan. The
// small-cap legs prune all the time and draw times from below the floor to
// past the newest mark; there the brute-force scan holds for queries at or
// above the floor, and every leg also checks the binary-search reference,
// answer for answer.
func TestTrackRandomAgainstReference(t *testing.T) {
	for _, cap := range append([]int{unbounded}, prunedCaps...) {
		for seed := uint64(1); seed <= 10; seed++ {
			tr := NewTrack(cap)
			bs := &bsTrack{cap: cap}
			type mark struct{ at, tag uint64 }
			var ref []mark
			src := rng.New(seed * 0x9E3779B97F4A7C15)
			for step := 0; step < 500; step++ {
				var at uint64
				if cap == unbounded {
					at = uint64(src.Intn(1024))
				} else {
					at = spread(src, tr.Floor(), tr.times)
				}
				tag := uint64(src.Intn(64))
				floor := tr.Floor()
				tr.Set(at, tag)
				bs.set(at, tag)
				at = max(at, floor) // where Set clamped it
				replaced := false
				for i := range ref {
					if ref[i].at == at {
						ref[i].tag = tag
						replaced = true
					}
				}
				if !replaced {
					ref = append(ref, mark{at, tag})
				}

				var q uint64
				if cap == unbounded {
					q = uint64(src.Intn(1100))
				} else {
					q = spread(src, tr.Floor(), tr.times)
				}
				gotTag, gotOK := tr.At(q)
				bsTag, bsOK := bs.at(q)
				if gotOK != bsOK || gotTag != bsTag || tr.Floor() != bs.floor || tr.Marks() != len(bs.times) {
					t.Fatalf("cap %d seed %d step %d: At(%d) = (%d,%v) with floor %d and %d marks, binary search (%d,%v), %d, %d",
						cap, seed, step, q, gotTag, gotOK, tr.Floor(), tr.Marks(), bsTag, bsOK, bs.floor, len(bs.times))
				}
				if q < tr.Floor() {
					continue // pruned history: the brute-force scan still holds it
				}
				var wantTag uint64
				wantOK := false
				bestAt := uint64(0)
				for _, m := range ref {
					if m.at <= q && (!wantOK || m.at >= bestAt) {
						wantOK, wantTag, bestAt = true, m.tag, m.at
					}
				}
				if gotOK != wantOK || (gotOK && gotTag != wantTag) {
					t.Fatalf("cap %d seed %d step %d: At(%d) = (%d,%v), reference (%d,%v)",
						cap, seed, step, q, gotTag, gotOK, wantTag, wantOK)
				}
			}
		}
	}
}

// TestProbeMatchesPlace pins the Probe/Place pair contract: Probe returns
// exactly the start the next Place will reserve, and reserves nothing. The
// small-cap legs draw arrivals from below the floor to past the newest
// interval, and every leg checks the binary-search reference too.
func TestProbeMatchesPlace(t *testing.T) {
	for _, cap := range append([]int{unbounded}, prunedCaps...) {
		for seed := uint64(1); seed <= 10; seed++ {
			tl := New(cap)
			bs := &bsTimeline{cap: cap}
			src := rng.New(seed * 0xD1B54A32D192ED03)
			for step := 0; step < 300; step++ {
				var now uint64
				if cap == unbounded {
					now = uint64(src.Intn(4096))
				} else {
					now = spread(src, tl.Floor(), tl.ends)
				}
				dur := uint64(src.Intn(8))
				before := tl.Intervals()
				probed := tl.Probe(now, dur)
				if tl.Intervals() != before {
					t.Fatalf("cap %d seed %d step %d: Probe mutated the timeline", cap, seed, step)
				}
				if want := bs.place(now, dur, false); probed != want {
					t.Fatalf("cap %d seed %d step %d: Probe(%d,%d) = %d, binary search %d",
						cap, seed, step, now, dur, probed, want)
				}
				if got := tl.Place(now, dur); got != probed {
					t.Fatalf("cap %d seed %d step %d: Probe(%d,%d)=%d but Place=%d",
						cap, seed, step, now, dur, probed, got)
				}
				bs.place(now, dur, true)
				if tl.Floor() != bs.floor || tl.Intervals() != len(bs.starts) {
					t.Fatalf("cap %d seed %d step %d: floor %d and %d intervals, binary search %d and %d",
						cap, seed, step, tl.Floor(), tl.Intervals(), bs.floor, len(bs.starts))
				}
			}
		}
	}
}
