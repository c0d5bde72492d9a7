package cache

// TimedPool models a fixed-capacity pool of entries that are each busy until
// some future cycle: MSHRs and write-back buffers. It answers the only timing
// question those structures pose to the rest of the simulator: "if I need an
// entry at time t, when do I actually get one?".
//
// The pool keeps a binary min-heap of its occupations keyed by completion
// time. Reserve returns the earliest time at or after `now` at which an
// entry is available; the caller then computes the operation's completion
// time and registers it with Occupy, repeating the arrival time it gave
// Reserve.
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
// The zero value is unusable; use NewTimedPool.
type TimedPool struct {
	capacity int
	occs     []occupation // min-heap keyed by done time
	pending  int          // Reserves awaiting their Occupy

	// Stats.
	reservations uint64
	stallCycles  uint64
}

// occupation is one busy entry: claimed by a request that arrived at
// arrival, busy until done.
type occupation struct {
	arrival uint64
	done    uint64
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
//     caller is delayed until the earliest one drains.
func (p *TimedPool) Reserve(now uint64) uint64 {
	p.reservations++
	p.pending++
	// Drain occupations that have completed by now.
	for len(p.occs) > 0 && p.occs[0].done <= now {
		p.pop()
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
	p.pop()
	p.stallCycles += earliest - now
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
	p.push(occupation{arrival: arrivedAt, done: until})
}

// StallCycles returns the cumulative cycles callers were delayed waiting for
// a free entry.
func (p *TimedPool) StallCycles() uint64 { return p.stallCycles }

// Reservations returns how many Reserve calls were made.
func (p *TimedPool) Reservations() uint64 { return p.reservations }

// ResetStats clears the stall/reservation counters but keeps in-flight state.
func (p *TimedPool) ResetStats() {
	p.stallCycles = 0
	p.reservations = 0
}

func (p *TimedPool) push(o occupation) {
	p.occs = append(p.occs, o)
	i := len(p.occs) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if p.occs[parent].done <= p.occs[i].done {
			break
		}
		p.occs[parent], p.occs[i] = p.occs[i], p.occs[parent]
		i = parent
	}
}

// pop removes the minimum-done occupation.
func (p *TimedPool) pop() { p.removeAt(0) }

// removeAt removes the occupation at heap index i, restoring heap order.
func (p *TimedPool) removeAt(i int) {
	n := len(p.occs) - 1
	p.occs[i] = p.occs[n]
	p.occs = p.occs[:n]
	if i == n {
		return
	}
	// Sift up (the moved element may beat its parent)...
	for i > 0 {
		parent := (i - 1) / 2
		if p.occs[parent].done <= p.occs[i].done {
			break
		}
		p.occs[parent], p.occs[i] = p.occs[i], p.occs[parent]
		i = parent
	}
	// ...then down.
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && p.occs[l].done < p.occs[smallest].done {
			smallest = l
		}
		if r < n && p.occs[r].done < p.occs[smallest].done {
			smallest = r
		}
		if smallest == i {
			return
		}
		p.occs[i], p.occs[smallest] = p.occs[smallest], p.occs[i]
		i = smallest
	}
}
