package cache

// TimedPool models a fixed-capacity pool of entries that are each busy until
// some future cycle: MSHRs and write-back buffers. It answers the only timing
// question those structures pose to the rest of the simulator: "if I need an
// entry at time t, when do I actually get one?".
//
// Reserve returns the earliest time at or after `now` at which an entry is
// available; the caller then computes the operation's completion time and
// registers it with Occupy, repeating the arrival time it gave Reserve.
//
// Callers may present arrival times out of global time order: the event
// loop interleaves cores at one-op granularity, and the shared pools (the
// LLC MSHRs and write-back buffers) see several cores' computed future
// timestamps. Each occupation therefore records the *arrival* time of the
// request that claimed it. On a full pool, only occupations claimed by
// requests that arrived at or before `now` make the new request wait —
// first-come first-served in simulated time. An occupation claimed by a
// logically-later request (arrival > now) never delays an earlier one; it
// is displaced from tracking instead, a bounded overcommit approximation in
// place of rewriting history. The approximation also extends to drained
// history: occupations whose window has fully elapsed by the time a
// Reserve observes them are forgotten, so an arrival presented *after* a
// drain but timestamped *inside* the drained window is not queued behind
// it. Both shortcuts are deterministic functions of the call sequence, so
// batch invariance is unaffected.
//
// The stall tie rule: a request that finds every entry held by requests
// at or before it waits for the earliest completion, and among the
// occupations that complete then it takes the entry of the one that
// arrived first, as first-come first-served would. The pool keeps its
// occupations in a slice sorted by (done, arrival), so a drain drops a
// prefix and a stall takes the head, and every answer of the pool is a
// function of the multiset of tracked claims, never of call order.
//
// The zero value is unusable; use NewTimedPool.
type TimedPool struct {
	capacity int
	occs     []occupation // sorted by (done, arrival), ascending
	pending  int          // Reserves awaiting their Occupy
}

// occupation is one busy entry: claimed by a request that arrived at
// arrival, busy until done.
type occupation struct {
	arrival uint64
	done    uint64
}

// before reports whether o sorts ahead of q: by done, then by arrival.
func (o occupation) before(q occupation) bool {
	return o.done < q.done || o.done == q.done && o.arrival < q.arrival
}

// NewTimedPool returns a pool with the given number of entries.
func NewTimedPool(capacity int) *TimedPool {
	if capacity <= 0 {
		panic("cache: TimedPool capacity must be positive")
	}
	return &TimedPool{capacity: capacity, occs: make([]occupation, 0, capacity)}
}

// InFlight returns the number of currently tracked occupations. Entries
// whose done time has passed still count until drained by Reserve; callers
// interested in logical occupancy at a time t should use BusyAt.
func (p *TimedPool) InFlight() int { return len(p.occs) }

// BusyAt returns how many entries are busy at time t: claimed at or before
// t and not yet drained.
func (p *TimedPool) BusyAt(t uint64) int {
	n := 0
	for _, o := range p.occs {
		if o.arrival <= t && t < o.done {
			n++
		}
	}
	return n
}

// Reserve returns the earliest time >= now at which an entry is free. The
// caller must follow up with Occupy to register the new operation's
// completion time.
//
//   - If fewer than capacity occupations are tracked (after draining the
//     ones completed by now), the answer is now.
//   - If the pool is full but some tracked occupation belongs to a request
//     that arrived *after* now, first-come first-served says the current,
//     logically-earlier request goes first: it is served at now with no
//     stall and the latest-arriving occupation gives up its tracking slot.
//   - Otherwise every entry is held by a request at or before now and the
//     caller is delayed until the earliest one drains, taking the entry of
//     the earliest-arriving occupation done then (the stall tie rule).
func (p *TimedPool) Reserve(now uint64) uint64 {
	p.pending++
	// Drain occupations that have completed by now: a prefix.
	n := 0
	for n < len(p.occs) && p.occs[n].done <= now {
		n++
	}
	if n > 0 {
		p.occs = p.occs[:copy(p.occs, p.occs[n:])]
	}
	if len(p.occs) < p.capacity {
		return now
	}
	// Full: a slot claimed by a logically-later request yields to this one.
	victim := -1
	for i, o := range p.occs {
		if o.arrival > now && (victim < 0 || o.arrival > p.occs[victim].arrival ||
			(o.arrival == p.occs[victim].arrival && o.done > p.occs[victim].done)) {
			victim = i
		}
	}
	if victim >= 0 {
		p.removeAt(victim)
		return now
	}
	earliest := p.occs[0].done
	p.removeAt(0)
	return earliest
}

// Occupy registers an entry as busy until the given time, claimed by the
// request that called Reserve with arrival arrivedAt. It must pair with a
// preceding Reserve; an unmatched Occupy panics, as that indicates a
// protocol violation in the caller. Degenerate windows (until <= arrivedAt)
// are not tracked.
func (p *TimedPool) Occupy(arrivedAt, until uint64) {
	if p.pending == 0 {
		panic("cache: TimedPool.Occupy without Reserve")
	}
	p.pending--
	if until <= arrivedAt {
		return
	}
	if len(p.occs) >= p.capacity {
		panic("cache: TimedPool over capacity (Reserve/Occupy pairing broken)")
	}
	// Insert from the back, after every occupation not sorted behind o.
	o := occupation{arrival: arrivedAt, done: until}
	i := len(p.occs)
	p.occs = append(p.occs, o)
	for ; i > 0 && o.before(p.occs[i-1]); i-- {
		p.occs[i] = p.occs[i-1]
	}
	p.occs[i] = o
}

// removeAt removes the occupation at index i, keeping the others' order.
func (p *TimedPool) removeAt(i int) { p.occs = append(p.occs[:i], p.occs[i+1:]...) }
