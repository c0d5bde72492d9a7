// Package mem models the main memory of the paper's Table 3: a DDR2 part
// with 8 banks, 4KB rows, open-page policy, a 180-cycle row-hit latency and
// a 340-cycle row-conflict latency, with permutation-based (XOR) page
// interleaving per Zhang, Zhu & Zhang (MICRO 2000) to spread conflicting
// rows across banks.
//
// Exactly as the paper states ("we use memory model for our study like [2]:
// only row-hits and row-conflicts are modeled"), this is a timing model of
// bank occupancy and row-buffer locality only — no command/bus scheduling.
//
// Requests reach a DRAM bank with timestamps that are not globally
// monotonic (demand fills and write-backs from different cores carry
// computed future times), so each bank's state is timeline-native:
//
//   - Occupancy is a busy-interval reservation timeline (internal/timeline)
//     rather than a single busy-until mark: a request is served in the
//     earliest gap at or after its own arrival and its queueing delay never
//     includes bank time reserved by logically-later requests.
//   - The open row is an annotation track on the same timeline
//     (timeline.Track): each access leaves its row open from its service
//     start, and a request's row hit/miss is decided by the row open at its
//     *reserved service time* — not by whichever request happened to be
//     presented last. A future-timestamped access therefore cannot donate a
//     row hit to a logically-earlier one, and row-hit rates are a measured
//     property of the reservation timeline, not of presentation order.
//
// All bank state — timeline, row track, counters — is per bank and
// self-contained. A DDR2 is not safe for concurrent use.
package mem

import (
	"fmt"
	"math/bits"

	"repro/internal/timeline"
)

// Config describes the memory system. Latencies are what a request waits
// for its data; occupancies are how long the bank stays unavailable to the
// next request. Row-buffer hits pipeline at the burst rate while the full
// access latency is still observed end-to-end.
type Config struct {
	Banks              int    // number of DRAM banks (8)
	RowBytes           int    // row-buffer size (4096)
	BlockBytes         int    // cache-block size (64)
	RowHitLatency      uint64 // cycles to data for an access hitting the open row (180)
	RowConflictLatency uint64 // cycles to data when a different row is open (340)
	RowHitOccupancy    uint64 // bank busy time for a row hit (burst transfer)
	RowConflOccupancy  uint64 // bank busy time for precharge+activate+burst
	XORMapping         bool   // permutation-based page interleaving
}

// Default returns the paper's Table 3 memory configuration.
func Default() Config {
	return Config{
		Banks:              8,
		RowBytes:           4096,
		BlockBytes:         64,
		RowHitLatency:      180,
		RowConflictLatency: 340,
		RowHitOccupancy:    20,
		RowConflOccupancy:  160,
		XORMapping:         true,
	}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.Banks <= 0 || c.Banks&(c.Banks-1) != 0 {
		return fmt.Errorf("mem: banks must be a positive power of two, got %d", c.Banks)
	}
	if c.RowBytes <= 0 || c.BlockBytes <= 0 || c.RowBytes%c.BlockBytes != 0 {
		return fmt.Errorf("mem: row (%d) must be a positive multiple of block (%d)", c.RowBytes, c.BlockBytes)
	}
	if n := c.RowBytes / c.BlockBytes; n&(n-1) != 0 {
		return fmt.Errorf("mem: blocks per row (%d) must be a power of two", n)
	}
	if c.RowHitLatency == 0 || c.RowConflictLatency < c.RowHitLatency {
		return fmt.Errorf("mem: need 0 < rowHit (%d) <= rowConflict (%d)", c.RowHitLatency, c.RowConflictLatency)
	}
	if c.RowHitOccupancy == 0 || c.RowConflOccupancy < c.RowHitOccupancy {
		return fmt.Errorf("mem: need 0 < hit occupancy (%d) <= conflict occupancy (%d)", c.RowHitOccupancy, c.RowConflOccupancy)
	}
	if c.RowHitOccupancy > c.RowHitLatency || c.RowConflOccupancy > c.RowConflictLatency {
		return fmt.Errorf("mem: occupancies must not exceed latencies")
	}
	return nil
}

// BankStats counts DRAM traffic: one bank's — the per-bank row-locality
// record behind Result.DRAMBanks and the Fig. 3 row-state tables — or, summed
// with Add, several banks'.
type BankStats struct {
	Accesses     uint64
	RowHits      uint64
	RowConflicts uint64
	Reads        uint64
	Writes       uint64
	QueueCycles  uint64 // cycles requests spent waiting for a busy bank
}

// Add accumulates o's counters into b.
func (b *BankStats) Add(o BankStats) {
	b.Accesses += o.Accesses
	b.RowHits += o.RowHits
	b.RowConflicts += o.RowConflicts
	b.Reads += o.Reads
	b.Writes += o.Writes
	b.QueueCycles += o.QueueCycles
}

// RowHitRate returns the fraction of the counted accesses that hit an open
// row.
func (b BankStats) RowHitRate() float64 {
	if b.Accesses == 0 {
		return 0
	}
	return float64(b.RowHits) / float64(b.Accesses)
}

// bankState is one bank's complete, self-contained state: its busy-interval
// timeline, the open-row annotation track riding on it, and its counters.
type bankState struct {
	tl    timeline.Timeline
	rows  timeline.Track
	stats BankStats
}

// DDR2 is the memory timing model.
type DDR2 struct {
	cfg       Config
	rowShift  int // log2 of blocks per row
	bankShift int // log2 of Banks
	bankMask  uint64
	banks     []bankState
}

// New builds the memory model, panicking on invalid configuration.
func New(cfg Config) *DDR2 {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &DDR2{
		cfg:       cfg,
		rowShift:  bits.TrailingZeros(uint(cfg.RowBytes / cfg.BlockBytes)),
		bankShift: bits.TrailingZeros(uint(cfg.Banks)),
		bankMask:  uint64(cfg.Banks - 1),
		banks:     make([]bankState, cfg.Banks),
	}
}

// Config returns the model's configuration.
func (m *DDR2) Config() Config { return m.cfg }

// Stats returns a snapshot of the counters summed over all banks.
func (m *DDR2) Stats() BankStats {
	var s BankStats
	for i := range m.banks {
		s.Add(m.banks[i].stats)
	}
	return s
}

// BankStats returns a snapshot of every bank's counters, bank order.
func (m *DDR2) BankStats() []BankStats {
	out := make([]BankStats, len(m.banks))
	for i := range m.banks {
		out[i] = m.banks[i].stats
	}
	return out
}

// ResetStats zeroes every bank's counters; timeline and row state carry
// over (microarchitectural state survives the warm-up boundary).
func (m *DDR2) ResetStats() {
	for i := range m.banks {
		m.banks[i].stats = BankStats{}
	}
}

// Map translates a block address to (bank, row). Consecutive rows interleave
// across banks; with XOR mapping the bank index is permuted by the row
// address so that power-of-two strides do not pile onto one bank. Validate
// makes blocks per row and Banks powers of two, so shifts and a mask do
// the divisions.
func (m *DDR2) Map(block uint64) (bank int, row uint64) {
	rowID := block >> m.rowShift
	b := rowID & m.bankMask
	row = rowID >> m.bankShift
	if m.cfg.XORMapping {
		b ^= row & m.bankMask
	}
	return int(b), row
}

// Access performs one memory access at time now, returning its completion
// time (data availability) and whether it hit the open row. The bank is
// occupied for the occupancy window only, so row-buffer hits pipeline at
// the burst rate behind the first access's latency. Arrival times need not
// be monotonic: the access is served in the earliest bank gap at or after
// now, its row hit/miss is decided by the row open at that reserved service
// time (the annotation track), and QueueCycles records only time the bank
// was genuinely occupied at the access's own arrival.
//
// The row decision is made at the earliest instant the bank could begin
// serving the access — the placement probed with the row-hit occupancy. On
// a hit the reservation is exactly that probed window; on a conflict the
// longer occupancy is placed from the same arrival (never earlier than the
// probe), and the access leaves its own row open from its service start.
func (m *DDR2) Access(now uint64, block uint64, write bool) (done uint64, rowHit bool) {
	bank, row := m.Map(block)
	b := &m.banks[bank]

	probe := b.tl.Probe(now, m.cfg.RowHitOccupancy)
	openRow, hasOpen := b.rows.At(probe)
	rowHit = hasOpen && openRow == row

	lat, busy := m.cfg.RowConflictLatency, m.cfg.RowConflOccupancy
	if rowHit {
		lat, busy = m.cfg.RowHitLatency, m.cfg.RowHitOccupancy
		b.stats.RowHits++
	} else {
		b.stats.RowConflicts++
	}
	start := b.tl.Place(now, busy)
	if start > now {
		b.stats.QueueCycles += start - now
	}
	b.stats.Accesses++
	if write {
		b.stats.Writes++
	} else {
		b.stats.Reads++
	}
	b.rows.Set(start, row)
	done = start + lat
	return done, rowHit
}
