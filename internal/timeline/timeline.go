// Package timeline provides a busy-interval reservation list for exclusive
// timed resources — an LLC bank behind the VPC arbiter, a DRAM bank — whose
// requests may arrive *out of global time order*.
//
// The simulator's event loop interleaves cores at one-op granularity: a core
// issues a memory reference at its local clock, but the reference's
// downstream accesses (L2 miss to an LLC bank, a write-back racing a demand
// fill into DRAM) carry computed future timestamps. Two cores therefore
// present a shared bank with timestamps that are not monotonic, and a
// single "busy until" high-water mark mis-serves them twice over: a
// logically-earlier request arriving late is queued behind bank time
// reserved by logically-later requests (inflating its wait), and the idle
// gap it should have used is lost forever.
//
// A Timeline instead records every reservation as a [start, end) busy
// interval in a sorted list and places each new request into the earliest
// gap at or after its arrival time. In-order request sequences behave
// exactly like a high-water mark (each reservation abuts or follows the
// previous ones, and the merged intervals collapse to a single tail), while
// out-of-order requests fill the idle gaps they logically owned and are
// never charged for bank time reserved after them.
//
// History is bounded: when the list overflows its cap, the oldest half is
// dropped and a floor is raised to the end of the last dropped interval;
// requests arriving below the floor are clamped to it. A long run holds
// between half the cap and the cap, yet arrival skew is small next to that
// history, so every search (Place, Probe, Track.At, Track.Set) scans back
// from the newest entry (EXPERIMENTS.md measures how far).
package timeline

// DefaultCap is the interval-list bound used when New is given a
// non-positive capacity. It is not a speed knob: a smaller cap raises the
// floor sooner and clamps more late arrivals, which changes results.
const DefaultCap = 256

// Timeline is one exclusive resource's reservation list. The zero value is
// a usable timeline with DefaultCap history; Timeline is not safe for
// concurrent use.
type Timeline struct {
	starts []uint64 // sorted, pairwise-disjoint busy intervals
	ends   []uint64
	floor  uint64 // pruned-history boundary; arrivals below it are clamped
	cap    int    // maximum interval count (0 = DefaultCap)
}

// New returns a timeline bounding its history to maxIntervals (DefaultCap
// if maxIntervals <= 0).
func New(maxIntervals int) *Timeline {
	return &Timeline{cap: maxIntervals}
}

// Floor returns the pruned-history boundary: the earliest time a request
// can still be placed at.
func (t *Timeline) Floor() uint64 { return t.floor }

// Intervals returns the number of busy intervals currently tracked.
func (t *Timeline) Intervals() int { return len(t.starts) }

// BusyAt reports whether the resource is reserved at time at.
func (t *Timeline) BusyAt(at uint64) bool {
	for i := range t.starts {
		if t.starts[i] <= at && at < t.ends[i] {
			return true
		}
	}
	return false
}

// Place reserves the earliest interval of length dur starting at or after
// now and returns its start time. The wait the caller should account is
// start - now; it is zero whenever a sufficient gap exists at the arrival
// time, regardless of how many later-timestamped reservations were made
// before this call. dur == 0 reserves nothing and returns the (clamped)
// arrival time.
func (t *Timeline) Place(now, dur uint64) (start uint64) {
	if now < t.floor {
		now = t.floor
	}
	if dur == 0 {
		return now
	}
	i, start := t.probe(now, dur)
	t.insert(i, start, start+dur)
	t.prune()
	return start
}

// Probe returns the start time Place(now, dur) would choose without
// reserving anything: the earliest gap of length dur at or after the
// (clamped) arrival time. A Probe followed by a Place with the same
// arguments and no intervening mutation reserves exactly the probed window —
// callers use the pair to make a decision (e.g. a DRAM row hit/miss) that
// itself determines the duration they finally reserve.
func (t *Timeline) Probe(now, dur uint64) (start uint64) {
	if now < t.floor {
		now = t.floor
	}
	if dur == 0 {
		return now
	}
	_, start = t.probe(now, dur)
	return start
}

// probe computes the earliest-gap placement of [start, start+dur) for an
// already-clamped arrival, returning the insertion index alongside the
// start. It does not mutate the timeline.
func (t *Timeline) probe(now, dur uint64) (i int, start uint64) {
	// First interval that ends after now; everything before it is history
	// this request cannot overlap. ends is strictly increasing (intervals
	// are disjoint and adjacent ones merge), and requests arrive near the
	// newest reservations, so the scan starts at the newest end.
	i = len(t.ends)
	for i > 0 && t.ends[i-1] > now {
		i--
	}

	// Walk forward until [start, start+dur) fits before the next interval.
	// Every interval from i on ends after now and after the one before it,
	// so a collision moves start to its end.
	start = now
	for i < len(t.starts) && start+dur > t.starts[i] {
		start = t.ends[i]
		i++
	}
	return i, start
}

// insert adds [s, e) at position i, merging with adjacent neighbours so
// contiguous traffic collapses to one interval.
func (t *Timeline) insert(i int, s, e uint64) {
	joinLeft := i > 0 && t.ends[i-1] == s
	joinRight := i < len(t.starts) && t.starts[i] == e
	switch {
	case joinLeft && joinRight:
		t.ends[i-1] = t.ends[i]
		t.starts = append(t.starts[:i], t.starts[i+1:]...)
		t.ends = append(t.ends[:i], t.ends[i+1:]...)
	case joinLeft:
		t.ends[i-1] = e
	case joinRight:
		t.starts[i] = s
	default:
		t.starts = append(t.starts, 0)
		t.ends = append(t.ends, 0)
		copy(t.starts[i+1:], t.starts[i:])
		copy(t.ends[i+1:], t.ends[i:])
		t.starts[i], t.ends[i] = s, e
	}
}

// prune drops the oldest half of the list once it exceeds its cap, raising
// the floor to the end of the last dropped interval so the dropped history
// stays unreservable. Dropping in bulk (rather than one interval per
// insert) keeps the amortized cost of sparse in-order traffic — append,
// occasionally halve — constant.
func (t *Timeline) prune() {
	max := t.cap
	if max <= 0 {
		max = DefaultCap
	}
	if len(t.starts) <= max {
		return
	}
	k := len(t.starts) - max/2
	t.floor = t.ends[k-1]
	n := copy(t.starts, t.starts[k:])
	copy(t.ends, t.ends[k:])
	t.starts = t.starts[:n]
	t.ends = t.ends[:n]
}
