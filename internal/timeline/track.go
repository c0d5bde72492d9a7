package timeline

// Track is a bounded, time-ordered annotation history for an exclusive
// resource: a sorted list of (time, tag) marks where the resource's state at
// time t is the tag of the latest mark at or before t. It is the companion
// structure to Timeline for state that *rides on* the reservations — the
// open row of a DRAM bank is the canonical example: each reservation leaves
// a row open from its service start, and a later request's row hit/miss is
// decided by the mark governing its own service time, not by whichever
// request happened to be presented last.
//
// Like Timeline, marks may be set out of presentation order (a reservation
// placed into an idle gap sets a mark *before* existing ones), history is
// bounded, and pruning raises a floor: the newest dropped mark is retained
// as the state at the floor, so queries at or above the floor are unaffected
// by pruning. The zero value is a usable track with DefaultCap history;
// Track is not safe for concurrent use.
type Track struct {
	times []uint64 // sorted mark times
	tags  []uint64
	floor uint64
	cap   int // maximum mark count (0 = DefaultCap)
}

// NewTrack returns a track bounding its history to maxMarks (DefaultCap if
// maxMarks <= 0).
func NewTrack(maxMarks int) *Track {
	return &Track{cap: maxMarks}
}

// Floor returns the pruned-history boundary: the earliest time a mark can
// still be set at.
func (tr *Track) Floor() uint64 { return tr.floor }

// Marks returns the number of marks currently tracked.
func (tr *Track) Marks() int { return len(tr.times) }

// At returns the tag of the latest mark at or before t, and whether any
// such mark exists. Marks strictly after t never influence the answer —
// that is the reservation-time-state property callers rely on.
func (tr *Track) At(t uint64) (tag uint64, ok bool) {
	// Last index with times[i] <= t. times is strictly increasing, and
	// queries land near the newest marks, so scan back from the newest
	// (see Timeline.probe).
	i := len(tr.times)
	for i > 0 && tr.times[i-1] > t {
		i--
	}
	if i == 0 {
		return 0, false
	}
	return tr.tags[i-1], true
}

// Set records that the resource's state becomes tag at time at (clamped to
// the floor). A mark already present at the same time is overwritten — on an
// exclusive resource two reservations cannot start at the same instant, so
// an equal-time Set is the same logical event restated.
func (tr *Track) Set(at, tag uint64) {
	if at < tr.floor {
		at = tr.floor
	}
	// First index with times[i] >= at, scanning back from the newest.
	i := len(tr.times)
	for i > 0 && tr.times[i-1] >= at {
		i--
	}
	if i < len(tr.times) && tr.times[i] == at {
		tr.tags[i] = tag
		return
	}
	tr.times = append(tr.times, 0)
	tr.tags = append(tr.tags, 0)
	copy(tr.times[i+1:], tr.times[i:])
	copy(tr.tags[i+1:], tr.tags[i:])
	tr.times[i], tr.tags[i] = at, tag
	tr.prune()
}

// prune drops the oldest marks once the list exceeds its cap, keeping the
// newest dropped mark as the state at the raised floor so At is unchanged
// for every time at or above it. Bulk halving mirrors Timeline.prune: the
// amortized cost of in-order traffic stays constant.
func (tr *Track) prune() {
	max := tr.cap
	if max <= 0 {
		max = DefaultCap
	}
	if len(tr.times) <= max {
		return
	}
	// Retain the last max/2 marks plus the one immediately before them,
	// which becomes the base state at the new floor.
	k := len(tr.times) - max/2 - 1
	tr.floor = tr.times[k]
	n := copy(tr.times, tr.times[k:])
	copy(tr.tags, tr.tags[k:])
	tr.times = tr.times[:n]
	tr.tags = tr.tags[:n]
}
