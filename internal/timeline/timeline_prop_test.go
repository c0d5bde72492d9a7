package timeline

import (
	"sort"
	"testing"

	"repro/internal/rng"
)

// refPlace is the brute-force specification of Place for an unpruned
// timeline: try every candidate start — the (clamped) arrival itself and
// the end of every existing reservation at or after it — in ascending
// order, and take the first one whose [start, start+dur) window overlaps no
// existing reservation. O(n^2) and obviously correct, which is the point.
type refTimeline struct {
	starts, ends []uint64
}

func (r *refTimeline) place(now, dur uint64) uint64 {
	if dur == 0 {
		return now
	}
	cands := []uint64{now}
	for _, e := range r.ends {
		if e > now {
			cands = append(cands, e)
		}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i] < cands[j] })
	for _, s := range cands {
		ok := true
		for i := range r.starts {
			if s < r.ends[i] && r.starts[i] < s+dur {
				ok = false
				break
			}
		}
		if ok {
			r.starts = append(r.starts, s)
			r.ends = append(r.ends, s+dur)
			return s
		}
	}
	panic("unreachable: the end of the last interval always fits")
}

// TestPlacePropertyRandomArrivals drives Place with seeded random
// out-of-order arrival sequences and checks, at every step, the three
// properties the shared-resource timing model relies on:
//
//  1. non-negative wait: a request is never served before it arrives;
//  2. non-overlapping reservations: no two placements share a cycle;
//  3. earliest-gap placement: the start matches the brute-force reference,
//     so a request is served at the first instant the resource is actually
//     free at or after its own arrival, regardless of presentation order.
//
// The unbounded leg never prunes. The small-cap legs prune all the time and
// draw arrivals from below the floor to past the newest interval. Pruned
// intervals end at or below the floor, so the brute-force reference, which
// keeps them all, still answers the clamped arrival. Every leg also checks
// the binary-search reference, answer for answer.
func TestPlacePropertyRandomArrivals(t *testing.T) {
	type placed struct{ start, end uint64 }
	for _, cap := range append([]int{unbounded}, prunedCaps...) {
		for seed := uint64(1); seed <= 25; seed++ {
			tl := New(cap)
			bs := &bsTimeline{cap: cap}
			ref := &refTimeline{}
			src := rng.New(seed * 0x9E3779B97F4A7C15)
			var history []placed
			for step := 0; step < 400; step++ {
				// Arrivals jump arbitrarily backwards and forwards in time —
				// far more hostile than the bounded skew of the event loop.
				var now uint64
				if cap == unbounded {
					now = uint64(src.Intn(4096))
				} else {
					now = spread(src, tl.Floor(), tl.ends)
				}
				dur := uint64(src.Intn(8))
				if src.Intn(8) == 0 {
					dur = 0 // probe-only requests reserve nothing
				}

				floor := tl.Floor()
				got := tl.Place(now, dur)
				if want := ref.place(max(now, floor), dur); got != want {
					t.Fatalf("cap %d seed %d step %d: Place(%d,%d) = %d, reference %d",
						cap, seed, step, now, dur, got, want)
				}
				if want := bs.place(now, dur, true); got != want || tl.Floor() != bs.floor || tl.Intervals() != len(bs.starts) {
					t.Fatalf("cap %d seed %d step %d: Place(%d,%d) = %d with floor %d and %d intervals, binary search %d, %d, %d",
						cap, seed, step, now, dur, got, tl.Floor(), tl.Intervals(), want, bs.floor, len(bs.starts))
				}
				if got < now {
					t.Fatalf("cap %d seed %d step %d: Place(%d,%d) served at %d, before arrival",
						cap, seed, step, now, dur, got)
				}
				if dur == 0 {
					continue
				}
				for _, p := range history {
					if got < p.end && p.start < got+dur {
						t.Fatalf("cap %d seed %d step %d: [%d,%d) overlaps earlier reservation [%d,%d)",
							cap, seed, step, got, got+dur, p.start, p.end)
					}
				}
				history = append(history, placed{got, got + dur})
			}
		}
	}
}

// TestPlaceInOrderDegeneratesToHighWaterMark checks the documented
// fast-path equivalence: monotonic contiguous traffic must collapse to a
// single merged interval and behave exactly like a busy-until mark.
func TestPlaceInOrderDegeneratesToHighWaterMark(t *testing.T) {
	tl := New(0)
	var mark uint64
	for i := 0; i < 300; i++ {
		now := uint64(i) * 3 // arrivals slower than service: queue builds
		start := tl.Place(now, 4)
		want := now
		if mark > want {
			want = mark
		}
		if start != want {
			t.Fatalf("step %d: start %d, high-water mark predicts %d", i, start, want)
		}
		mark = start + 4
	}
	if n := tl.Intervals(); n != 1 {
		t.Fatalf("contiguous in-order traffic left %d intervals, want 1 merged", n)
	}
}
