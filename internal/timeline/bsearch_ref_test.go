package timeline

import (
	"sort"

	"repro/internal/rng"
)

// bsTimeline and bsTrack are the Timeline and Track whose searches bisect
// the whole history, kept whole as references for the tail-first scans: the
// same lists, caps, floors and pruning. The random tests drive them beside
// the real types and compare every answer, Floor, Intervals and Marks.
type bsTimeline struct {
	starts, ends []uint64
	floor        uint64
	cap          int // positive
}

// place is Place when reserve is set and Probe otherwise.
func (t *bsTimeline) place(now, dur uint64, reserve bool) uint64 {
	if now < t.floor {
		now = t.floor
	}
	if dur == 0 {
		return now
	}
	i := sort.Search(len(t.ends), func(j int) bool { return t.ends[j] > now })
	start := now
	for ; i < len(t.starts) && start+dur > t.starts[i]; i++ {
		if t.ends[i] > start {
			start = t.ends[i]
		}
	}
	if !reserve {
		return start
	}
	s, e := start, start+dur
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
		t.starts = append(t.starts[:i], append([]uint64{s}, t.starts[i:]...)...)
		t.ends = append(t.ends[:i], append([]uint64{e}, t.ends[i:]...)...)
	}
	if len(t.starts) > t.cap {
		k := len(t.starts) - t.cap/2
		t.floor = t.ends[k-1]
		t.starts = append([]uint64(nil), t.starts[k:]...)
		t.ends = append([]uint64(nil), t.ends[k:]...)
	}
	return start
}

type bsTrack struct {
	times, tags []uint64
	floor       uint64
	cap         int // positive
}

func (tr *bsTrack) at(t uint64) (tag uint64, ok bool) {
	i := sort.Search(len(tr.times), func(j int) bool { return tr.times[j] > t })
	if i == 0 {
		return 0, false
	}
	return tr.tags[i-1], true
}

func (tr *bsTrack) set(at, tag uint64) {
	if at < tr.floor {
		at = tr.floor
	}
	i := sort.Search(len(tr.times), func(j int) bool { return tr.times[j] >= at })
	if i < len(tr.times) && tr.times[i] == at {
		tr.tags[i] = tag
		return
	}
	tr.times = append(tr.times[:i], append([]uint64{at}, tr.times[i:]...)...)
	tr.tags = append(tr.tags[:i], append([]uint64{tag}, tr.tags[i:]...)...)
	if len(tr.times) > tr.cap {
		k := len(tr.times) - tr.cap/2 - 1
		tr.floor = tr.times[k]
		tr.times = append([]uint64(nil), tr.times[k:]...)
		tr.tags = append([]uint64(nil), tr.tags[k:]...)
	}
}

// unbounded is the cap of the random tests' legs that never prune; their
// small-cap legs (prunedCaps) prune all the time.
const unbounded = 1 << 20

var prunedCaps = []int{8, 16}

// spread draws a time from 64 below the floor to 64 past the newest of the
// sorted times, so that a pruned list's searches end anywhere in it: at the
// clamped floor, deep in the history, or past its newest end.
func spread(src *rng.Source, floor uint64, sorted []uint64) uint64 {
	last := floor
	if n := len(sorted); n > 0 {
		last = sorted[n-1]
	}
	lo := floor - min(floor, 64)
	return lo + uint64(src.Intn(int(last+64-lo)+1))
}
