package cache

import (
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestTimedPoolFreeEntryNoDelay(t *testing.T) {
	p := NewTimedPool(2)
	if start := p.Reserve(100); start != 100 {
		t.Fatalf("Reserve with free entries delayed: %d", start)
	}
	p.Occupy(100, 200)
	if start := p.Reserve(100); start != 100 {
		t.Fatalf("second Reserve with a free entry delayed: %d", start)
	}
	p.Occupy(100, 300)
}

func TestTimedPoolFullDelaysToEarliest(t *testing.T) {
	p := NewTimedPool(2)
	p.Reserve(0)
	p.Occupy(0, 50)
	p.Reserve(0)
	p.Occupy(0, 80)
	// Pool full; a request at t=10 must wait for the earliest drain (50).
	if start := p.Reserve(10); start != 50 {
		t.Fatalf("Reserve on full pool returned %d, want 50", start)
	}
	p.Occupy(10, 90)
}

func TestTimedPoolExpiredEntryNoDelay(t *testing.T) {
	p := NewTimedPool(1)
	p.Reserve(0)
	p.Occupy(0, 5)
	// At t=10 the single entry has drained; no delay.
	if start := p.Reserve(10); start != 10 {
		t.Fatalf("Reserve after drain returned %d, want 10", start)
	}
}

// TestTimedPoolOutOfOrderArrivalNotStalledByFutureClaims is the regression
// test for non-monotonic timestamps reaching a shared pool: an entry
// claimed by a logically-later request must not stall a logically-earlier
// one.
func TestTimedPoolOutOfOrderArrivalNotStalledByFutureClaims(t *testing.T) {
	p := NewTimedPool(1)
	p.Reserve(1000)
	p.Occupy(1000, 1200) // claimed by a request arriving at t=1000
	// A request arriving at t=5 precedes that claim: FCFS serves it at 5.
	if start := p.Reserve(5); start != 5 {
		t.Fatalf("earlier request served at %d, want 5: stalled by a future claim", start)
	}
	p.Occupy(5, 100)
	// A request at t=1100 queues behind the [5,100) claim? No — that drained
	// at 100; it is served immediately.
	if start := p.Reserve(1100); start != 1100 {
		t.Fatalf("post-drain request served at %d, want 1100", start)
	}
	p.Occupy(1100, 1300)
}

// TestTimedPoolQueuedEarlierRequestStillBlocks pins the FCFS half of the
// rule: an occupation claimed by an *earlier* arrival blocks a later
// request even if its busy window starts in the future.
func TestTimedPoolQueuedEarlierRequestStillBlocks(t *testing.T) {
	p := NewTimedPool(1)
	p.Reserve(0)
	p.Occupy(0, 100)
	// Arrives at 10, stalls to 100, occupies [100, 200): a queued claim.
	if start := p.Reserve(10); start != 100 {
		t.Fatalf("queued request served at %d, want 100", start)
	}
	p.Occupy(10, 200)
	// Arrives at 20 — after the t=10 request — and must wait behind it.
	if start := p.Reserve(20); start != 200 {
		t.Fatalf("later request served at %d, want 200 (behind the t=10 claim)", start)
	}
	p.Occupy(20, 300)
}

// TestTimedPoolStallTakesEarliestArrivalOnTie pins the stall tie rule: of
// two claims that complete together, a stalled request takes the entry of
// the one that arrived first, whichever was occupied first.
func TestTimedPoolStallTakesEarliestArrivalOnTie(t *testing.T) {
	p := NewTimedPool(2)
	p.Reserve(100)
	p.Occupy(100, 200)
	p.Reserve(50)
	p.Occupy(50, 200)
	if start := p.Reserve(150); start != 200 {
		t.Fatalf("stalled request served at %d, want 200", start)
	}
	// The arrival-50 claim gave up its entry; the arrival-100 one remains.
	if got := p.BusyAt(60); got != 0 {
		t.Fatalf("BusyAt(60) = %d, want 0: the arrival-50 claim should be gone", got)
	}
	if got := p.BusyAt(120); got != 1 {
		t.Fatalf("BusyAt(120) = %d, want 1: the arrival-100 claim should remain", got)
	}
}

func TestTimedPoolBusyAt(t *testing.T) {
	p := NewTimedPool(4)
	for _, until := range []uint64{10, 20, 30} {
		p.Reserve(0)
		p.Occupy(0, until)
	}
	if got := p.BusyAt(15); got != 2 {
		t.Fatalf("BusyAt(15) = %d, want 2", got)
	}
	if got := p.BusyAt(40); got != 0 {
		t.Fatalf("BusyAt(40) = %d, want 0", got)
	}
	if p.InFlight() != 3 {
		t.Fatalf("InFlight = %d, want 3", p.InFlight())
	}
}

func TestTimedPoolOccupyWithoutReservePanics(t *testing.T) {
	p := NewTimedPool(1)
	p.Reserve(0)
	p.Occupy(0, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("Occupy without Reserve did not panic")
		}
	}()
	p.Occupy(0, 2)
}

func TestTimedPoolZeroCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewTimedPool(0) did not panic")
		}
	}()
	NewTimedPool(0)
}

// TestTimedPoolHeapProperty drives the pool with random occupy times under
// in-order (all-at-zero) arrivals and verifies Reserve always pops the
// globally earliest busy-until time, by comparing against a sorted
// reference model. With monotone arrivals the FCFS rule never fires, so the
// pool must behave exactly like the classic k-entry availability heap.
func TestTimedPoolHeapProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		const capacity = 8
		p := NewTimedPool(capacity)
		var model []uint64 // busy-until times, reference
		for _, r := range raw {
			until := uint64(r) + 1 // nondegenerate window from arrival 0
			start := p.Reserve(0)
			if len(model) < capacity {
				if start != 0 {
					return false
				}
			} else {
				sort.Slice(model, func(i, j int) bool { return model[i] < model[j] })
				want := model[0]
				model = model[1:]
				if start != want {
					return false
				}
			}
			p.Occupy(0, until)
			model = append(model, until)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestTimedPoolMatchesListModel drives the pool and listPool, a brute-force
// model of its rules over an unordered list, with the same random calls at
// capacities 1, 2, 4 and 8, and compares Reserve's answer, the occupations
// it leaves, InFlight and BusyAt at random times after every call.
// Arrivals move back and forth over a sliding window on a coarse grid, so
// full pools meet displacement candidates that tie on arrival and stalls
// on occupations that complete together, and one window in eight is
// degenerate. One call in eight, when the pool tracks a claim that
// arrived later, completes at that claim's done time, so that a stall's
// tie can be broken against the order in which the claims were occupied.
func TestTimedPoolMatchesListModel(t *testing.T) {
	for _, capacity := range []int{1, 2, 4, 8} {
		for seed := uint64(1); seed <= 40; seed++ {
			p, ref := NewTimedPool(capacity), &listPool{capacity: capacity}
			src := rng.New(seed*0x9E3779B97F4A7C15 + uint64(capacity))
			clock := uint64(64)
			check := func(step int, call string) {
				if p.InFlight() != len(ref.occs) {
					t.Fatalf("cap %d seed %d step %d, after %s: %d in flight, model %d",
						capacity, seed, step, call, p.InFlight(), len(ref.occs))
				}
				if !sameOccupations(ref.occs, p.occs) {
					t.Fatalf("cap %d seed %d step %d, after %s: pool holds %v, model %v",
						capacity, seed, step, call, p.occs, ref.occs)
				}
				for k := 0; k < 3; k++ {
					at := clock - 64 + uint64(src.Intn(192))
					if got, want := p.BusyAt(at), ref.busyAt(at); got != want {
						t.Fatalf("cap %d seed %d step %d, after %s: BusyAt(%d) = %d, model %d",
							capacity, seed, step, call, at, got, want)
					}
				}
			}
			for step := 0; step < 400; step++ {
				clock += uint64(src.Intn(4))
				now := clock - 32 + 4*uint64(src.Intn(16))
				start := p.Reserve(now)
				if want := ref.reserve(now); start != want {
					t.Fatalf("cap %d seed %d step %d: Reserve(%d) = %d, model %d",
						capacity, seed, step, now, start, want)
				}
				check(step, "Reserve")
				until := start + 1 + uint64(src.Intn(48))
				switch src.Intn(8) {
				case 0:
					until = now - uint64(src.Intn(2)) // degenerate: not tracked
				case 1, 2, 3:
					until = start + 8*uint64(1+src.Intn(6)) // on a grid, so completions tie
				case 4:
					// Tie with a tracked claim that arrived later.
					for _, o := range ref.occs {
						if o.arrival > now && o.done > now {
							until = o.done
							break
						}
					}
				}
				p.Occupy(now, until)
				ref.occupy(now, until)
				check(step, "Occupy")
			}
		}
	}
}

// listPool models TimedPool's rules over an unordered list: a drain
// forgets every occupation done by now, a full pool displaces the
// latest-arriving occupation that arrived after now (the later done on a
// tie), and otherwise the request stalls until the earliest done and takes
// the entry of the earliest-arriving occupation done then.
type listPool struct {
	capacity int
	occs     []occupation
}

func (m *listPool) busyAt(t uint64) int {
	n := 0
	for _, o := range m.occs {
		if o.arrival <= t && t < o.done {
			n++
		}
	}
	return n
}

// reserve returns the answer for a request at now.
func (m *listPool) reserve(now uint64) uint64 {
	kept := m.occs[:0]
	for _, o := range m.occs {
		if o.done > now {
			kept = append(kept, o)
		}
	}
	m.occs = kept
	if len(m.occs) < m.capacity {
		return now
	}
	victim, first := -1, 0
	for i, o := range m.occs {
		if o.arrival > now && (victim < 0 || o.arrival > m.occs[victim].arrival ||
			(o.arrival == m.occs[victim].arrival && o.done > m.occs[victim].done)) {
			victim = i
		}
		if f := m.occs[first]; o.done < f.done || o.done == f.done && o.arrival < f.arrival {
			first = i
		}
	}
	start := now
	if victim < 0 {
		victim, start = first, m.occs[first].done
	}
	m.occs = append(m.occs[:victim], m.occs[victim+1:]...)
	return start
}

func (m *listPool) occupy(arrivedAt, until uint64) {
	if until > arrivedAt {
		m.occs = append(m.occs, occupation{arrival: arrivedAt, done: until})
	}
}

// sameOccupations reports whether a and b hold the same occupations,
// counted with multiplicity, in any order.
func sameOccupations(a, b []occupation) bool {
	if len(a) != len(b) {
		return false
	}
	count := map[occupation]int{}
	for _, o := range a {
		count[o]++
	}
	for _, o := range b {
		if count[o]--; count[o] < 0 {
			return false
		}
	}
	return true
}

// BenchmarkTimedPool drives one pool shaped like the simulator's LLC-side
// and L2 pools: arrivals out of order around a moving clock, mixed hold
// times and bursts, so that calls drain, now and then meet a full pool and
// stall or displace a later arrival. EXPERIMENTS.md ("A sorted pool under
// a stated tie rule") compares its counts with the simulator's. The script
// replays with its times shifted past the previous pass.
func BenchmarkTimedPool(b *testing.B) {
	const calls = 1 << 12
	type call struct{ at, hold uint64 }
	script := make([]call, calls)
	src := rng.New(0x9001)
	clock := uint64(1 << 20)
	for i := range script {
		step := 30
		if i%256 < 27 {
			step = 1
		}
		clock += uint64(src.Intn(2*step + 1))
		hold := uint64(100 + src.Intn(60))
		if src.Intn(8) == 0 {
			hold = uint64(500 + src.Intn(600))
		}
		script[i] = call{at: clock - uint64(src.Intn(20)), hold: hold}
	}
	p := NewTimedPool(32)
	var base uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i > 0 && i%calls == 0 {
			base += clock + 1<<12
		}
		c := script[i%calls]
		now := base + c.at
		p.Occupy(now, p.Reserve(now)+c.hold)
	}
}
