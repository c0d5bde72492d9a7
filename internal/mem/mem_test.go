package mem

import (
	"testing"
	"testing/quick"
)

func TestDefaultConfigValid(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	ok := Default()
	bad := []Config{
		{Banks: 3, RowBytes: 4096, BlockBytes: 64, RowHitLatency: 180, RowConflictLatency: 340, RowHitOccupancy: 20, RowConflOccupancy: 160},
		{Banks: 8, RowBytes: 100, BlockBytes: 64, RowHitLatency: 180, RowConflictLatency: 340, RowHitOccupancy: 20, RowConflOccupancy: 160},
		{Banks: 8, RowBytes: 4032, BlockBytes: 64, RowHitLatency: 180, RowConflictLatency: 340, RowHitOccupancy: 20, RowConflOccupancy: 160}, // 63 blocks per row
		{Banks: 8, RowBytes: 4096, BlockBytes: 64, RowHitLatency: 0, RowConflictLatency: 340, RowHitOccupancy: 20, RowConflOccupancy: 160},
		{Banks: 8, RowBytes: 4096, BlockBytes: 64, RowHitLatency: 340, RowConflictLatency: 180, RowHitOccupancy: 20, RowConflOccupancy: 160},
	}
	noOcc := ok
	noOcc.RowHitOccupancy = 0
	bad = append(bad, noOcc)
	bigOcc := ok
	bigOcc.RowHitOccupancy = ok.RowHitLatency + 1
	bad = append(bad, bigOcc)
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d accepted: %+v", i, c)
		}
	}
}

func TestRowHitVsConflictLatency(t *testing.T) {
	m := New(Default())
	// First access to a row: conflict latency (no open row).
	done, hit := m.Access(0, 0, false)
	if hit || done != 340 {
		t.Fatalf("first access: done=%d hit=%v, want 340/false", done, hit)
	}
	// Same row (block 1 is within the same 4KB row): row hit.
	done, hit = m.Access(done, 1, false)
	if !hit || done != 340+180 {
		t.Fatalf("same-row access: done=%d hit=%v, want 520/true", done, hit)
	}
}

func TestRowConflictClosesRow(t *testing.T) {
	cfg := Default()
	cfg.XORMapping = false
	m := New(cfg)
	blocksPerRow := uint64(cfg.RowBytes / cfg.BlockBytes) // 64
	rowStride := blocksPerRow * uint64(cfg.Banks)         // same bank, next row
	m.Access(0, 0, false)
	// Different row, same bank: conflict.
	_, hit := m.Access(1000, rowStride, false)
	if hit {
		t.Fatal("different row on same bank reported a row hit")
	}
	if m.Stats().RowConflicts != 2 {
		t.Fatalf("conflicts = %d, want 2", m.Stats().RowConflicts)
	}
}

func TestBankOccupancyQueues(t *testing.T) {
	m := New(Default())
	m.Access(0, 0, false) // conflict: bank busy until 160
	// Second access to the same bank at t=0 must wait for the occupancy
	// window (160) before starting; it then row-hits (done 160+180).
	done2, hit := m.Access(0, 1, false)
	if !hit {
		t.Fatal("same-row access should row-hit")
	}
	if done2 != 160+180 {
		t.Fatalf("queued access done=%d, want 340", done2)
	}
	if m.Stats().QueueCycles != 160 {
		t.Fatalf("queue cycles = %d, want 160", m.Stats().QueueCycles)
	}
}

func TestRowHitsPipelineBehindLatency(t *testing.T) {
	// Back-to-back same-row accesses issued at t=0 start every
	// RowHitOccupancy cycles, not every RowHitLatency cycles.
	m := New(Default())
	m.Access(0, 0, false) // opens the row, busy until 160
	var dones []uint64
	for b := uint64(1); b <= 4; b++ {
		d, _ := m.Access(0, b, false)
		dones = append(dones, d)
	}
	// Starts: 160, 180, 200, 220 -> dones 340, 360, 380, 400.
	for i, want := range []uint64{340, 360, 380, 400} {
		if dones[i] != want {
			t.Fatalf("pipelined access %d done=%d, want %d", i, dones[i], want)
		}
	}
}

func TestDifferentBanksDoNotQueue(t *testing.T) {
	cfg := Default()
	cfg.XORMapping = false
	m := New(cfg)
	blocksPerRow := uint64(cfg.RowBytes / cfg.BlockBytes)
	m.Access(0, 0, false)                   // bank 0
	_, _ = m.Access(0, blocksPerRow, false) // bank 1: no queue
	if m.Stats().QueueCycles != 0 {
		t.Fatal("independent banks queued against each other")
	}
}

func TestMapSpreadsBanks(t *testing.T) {
	m := New(Default())
	counts := make([]int, 8)
	// Sequential rows must rotate across all banks.
	blocksPerRow := uint64(m.cfg.RowBytes / m.cfg.BlockBytes)
	for r := uint64(0); r < 64; r++ {
		bank, _ := m.Map(r * blocksPerRow)
		counts[bank]++
	}
	for b, n := range counts {
		if n != 8 {
			t.Fatalf("bank %d received %d of 64 sequential rows, want 8", b, n)
		}
	}
}

func TestXORMappingBreaksPowerOfTwoStride(t *testing.T) {
	// A stride of banks*rowBytes hits a single bank without XOR mapping and
	// spreads across banks with it — the point of Zhang et al.'s scheme.
	plain := Default()
	plain.XORMapping = false
	xor := Default()
	strideBlocks := uint64(plain.Banks) * uint64(plain.RowBytes/plain.BlockBytes)

	distinct := func(cfg Config) int {
		m := New(cfg)
		seen := map[int]bool{}
		for i := uint64(0); i < 64; i++ {
			bank, _ := m.Map(i * strideBlocks)
			seen[bank] = true
		}
		return len(seen)
	}
	if n := distinct(plain); n != 1 {
		t.Fatalf("plain mapping spread power-of-two stride over %d banks, want 1", n)
	}
	if n := distinct(xor); n < 4 {
		t.Fatalf("XOR mapping spread power-of-two stride over only %d banks", n)
	}
}

// TestMapRoundTripProperties checks Map against the division formula it
// implements, rowID = block / blocksPerRow, bank = rowID % Banks (XORed
// with row % Banks under XOR mapping), row = rowID / Banks, and that blocks
// within one row map identically, with XOR mapping on and off.
func TestMapRoundTripProperties(t *testing.T) {
	for _, xor := range []bool{true, false} {
		cfg := Default()
		cfg.XORMapping = xor
		m := New(cfg)
		blocksPerRow := uint64(cfg.RowBytes / cfg.BlockBytes)
		banks := uint64(cfg.Banks)
		f := func(block uint64) bool {
			bank, row := m.Map(block)
			rowID := block / blocksPerRow
			wantBank, wantRow := rowID%banks, rowID/banks
			if xor {
				wantBank ^= wantRow % banks
			}
			if bank != int(wantBank) || row != wantRow {
				return false
			}
			b2, r2 := m.Map(block - block%blocksPerRow)
			return b2 == bank && r2 == row
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
			t.Fatalf("XOR mapping %v: %v", xor, err)
		}
	}
}

func TestStreamEnjoysRowHits(t *testing.T) {
	m := New(Default())
	now := uint64(0)
	for b := uint64(0); b < 6400; b++ {
		done, _ := m.Access(now, b, false)
		now = done
	}
	// Sequential blocks: 63 of every 64 accesses hit the open row.
	if rate := m.Stats().RowHitRate(); rate < 0.95 {
		t.Fatalf("sequential row-hit rate %.3f, want > 0.95", rate)
	}
}

func TestRandomAccessesMostlyConflict(t *testing.T) {
	m := New(Default())
	now := uint64(0)
	x := uint64(88172645463325252)
	for i := 0; i < 5000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		done, _ := m.Access(now, x%(1<<30), false)
		now = done
	}
	if rate := m.Stats().RowHitRate(); rate > 0.2 {
		t.Fatalf("random row-hit rate %.3f suspiciously high", rate)
	}
}

func TestOutOfOrderArrivalUsesIdleGap(t *testing.T) {
	// A request timestamped in the future must not make a logically-earlier
	// request queue behind it: the earlier request is served in the idle gap
	// and charged no queueing delay.
	// Same bank: block 1 maps with block 0.
	m2 := New(Default())
	m2.Access(10_000, 0, false)
	q0 := m2.Stats().QueueCycles
	done2, _ := m2.Access(0, 1, false) // same row, same bank, idle at t=0
	if m2.Stats().QueueCycles != q0 {
		t.Fatalf("early same-bank request charged %d queue cycles for a future reservation",
			m2.Stats().QueueCycles-q0)
	}
	if done2 > 1_000 {
		t.Fatalf("early same-bank request done=%d, served after the future window", done2)
	}
}

func TestStatsReadsWritesAndReset(t *testing.T) {
	m := New(Default())
	m.Access(0, 0, false)
	m.Access(0, 100000, true)
	st := m.Stats()
	if st.Reads != 1 || st.Writes != 1 || st.Accesses != 2 {
		t.Fatalf("stats = %+v", st)
	}
	m.ResetStats()
	if st := m.Stats(); st != (BankStats{}) {
		t.Fatalf("ResetStats left %+v", st)
	}
}
