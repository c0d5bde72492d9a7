package cache

import (
	"reflect"
	"slices"
	"testing"
	"testing/quick"
	"unsafe"
)

// fifoPolicy is a minimal test policy: FIFO victim selection per set
// (ignoring way masks), optional bypass, and a record of callback order. It
// implements both optional observers.
type fifoPolicy struct {
	geom   Geometry
	next   []int
	calls  []string
	bypass bool
}

func newFIFO(g Geometry) *fifoPolicy {
	return &fifoPolicy{geom: g, next: make([]int, g.Sets)}
}

func (p *fifoPolicy) Name() string { return "fifo-test" }
func (p *fifoPolicy) OnHit(a *Access, set, way int) {
	p.calls = append(p.calls, "hit")
}
func (p *fifoPolicy) OnMiss(a *Access, set int) {
	p.calls = append(p.calls, "miss")
}
func (p *fifoPolicy) FillDecision(a *Access, set int, valid, ways uint64) (int, bool) {
	if p.bypass {
		return -1, false
	}
	w := p.next[set]
	p.next[set] = (w + 1) % p.geom.Ways
	return w, true
}
func (p *fifoPolicy) OnFill(a *Access, set, way int) {
	p.calls = append(p.calls, "fill")
}
func (p *fifoPolicy) OnEvict(set, way int, ev EvictedLine) {
	p.calls = append(p.calls, "evict")
}

func testConfig(sets, ways, cores int) Config {
	return Config{
		Name:       "test",
		Geometry:   Geometry{Sets: sets, Ways: ways, Cores: cores},
		BlockBytes: 64,
		HitLatency: 3,
	}
}

func TestConfigValidate(t *testing.T) {
	good := testConfig(64, 8, 2)
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	cases := []Config{
		testConfig(63, 8, 2), // non power-of-two sets
		testConfig(0, 8, 2),  // zero sets
		testConfig(64, 0, 2), // zero ways
		testConfig(64, 8, 0), // zero cores
		{Name: "b", Geometry: Geometry{Sets: 64, Ways: 8, Cores: 1}, BlockBytes: 48}, // bad block
	}
	for i, c := range cases {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted: %+v", i, c)
		}
	}
}

func TestGeometryBlocks(t *testing.T) {
	g := Geometry{Sets: 16384, Ways: 16, Cores: 16}
	if g.Blocks() != 262144 {
		t.Fatalf("16MB/64B cache should have 262144 blocks, got %d", g.Blocks())
	}
}

func TestMissFillHit(t *testing.T) {
	cfg := testConfig(16, 4, 1)
	c := New(cfg, newFIFO(cfg.Geometry))

	a := &Access{Block: 0x1234, Core: 0, Demand: true}
	res := c.Access(a)
	if res.Hit || c.ValidLines() != 1 {
		t.Fatalf("first access should miss and fill, got %+v with %d valid lines", res, c.ValidLines())
	}
	res = c.Access(a)
	if !res.Hit {
		t.Fatalf("second access should hit, got %+v", res)
	}
	st := c.Stats()
	if st.Accesses[0] != 2 || st.Misses[0] != 1 || st.DemandMisses[0] != 1 {
		t.Fatalf("unexpected stats: %+v", st)
	}
}

func TestSetTagRoundTrip(t *testing.T) {
	cfg := testConfig(256, 8, 1)
	c := New(cfg, newFIFO(cfg.Geometry))
	f := func(block uint64) bool {
		set, tag := c.SetOf(block), c.TagOf(block)
		return c.BlockOf(set, tag) == block && set >= 0 && set < 256
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestConflictEviction(t *testing.T) {
	cfg := testConfig(4, 2, 1)
	c := New(cfg, newFIFO(cfg.Geometry))
	// Three blocks in the same set (set 0): 0, 4, 8 with sets=4.
	for _, b := range []uint64{0, 4, 8} {
		c.Access(&Access{Block: b, Demand: true})
	}
	// Block 0 was victimised by FIFO; 4 and 8 remain.
	if _, ok := c.Lookup(0); ok {
		t.Fatal("block 0 should have been evicted")
	}
	for _, b := range []uint64{4, 8} {
		if _, ok := c.Lookup(b); !ok {
			t.Fatalf("block %d should be resident", b)
		}
	}
	if c.Stats().Evictions[0] != 1 {
		t.Fatalf("want 1 eviction, got %d", c.Stats().Evictions[0])
	}
}

func TestDirtyEvictionReported(t *testing.T) {
	cfg := testConfig(4, 1, 1)
	c := New(cfg, newFIFO(cfg.Geometry))
	c.Access(&Access{Block: 0, Write: true, Demand: true})
	res := c.Access(&Access{Block: 4, Demand: true}) // same set, evicts block 0
	if !res.EvictedValid || !res.Evicted.Dirty || res.Evicted.Block != 0 {
		t.Fatalf("expected dirty eviction of block 0, got %+v", res)
	}
	if c.Stats().DirtyEvictions[0] != 1 {
		t.Fatal("dirty eviction not counted")
	}
}

func TestWriteHitSetsDirty(t *testing.T) {
	cfg := testConfig(4, 2, 1)
	c := New(cfg, newFIFO(cfg.Geometry))
	c.Access(&Access{Block: 0, Demand: true})
	c.Access(&Access{Block: 0, Write: true, Demand: true})
	res := c.Access(&Access{Block: 4, Demand: true})
	_ = res
	c.Access(&Access{Block: 8, Demand: true}) // evicts block 0 (FIFO)
	if c.Stats().DirtyEvictions[0] != 1 {
		t.Fatal("write hit did not mark the line dirty")
	}
}

func TestBypassDoesNotFill(t *testing.T) {
	cfg := testConfig(4, 2, 1)
	p := newFIFO(cfg.Geometry)
	p.bypass = true
	c := New(cfg, p)
	if res := c.Access(&Access{Block: 7, Demand: true}); res != (Result{}) {
		t.Fatalf("a bypassed miss should read as a miss with nothing evicted, got %+v", res)
	}
	if _, ok := c.Lookup(7); ok {
		t.Fatal("bypassed block was installed")
	}
	if c.Stats().Bypasses[0] != 1 {
		t.Fatal("bypass not counted")
	}
	if c.ValidLines() != 0 {
		t.Fatal("bypass perturbed cache contents")
	}
}

func TestPrefetchLifecycle(t *testing.T) {
	cfg := testConfig(4, 2, 1)
	c := New(cfg, newFIFO(cfg.Geometry))
	// Prefetch fill.
	c.Access(&Access{Block: 3, Demand: false})
	if c.Stats().PrefetchFills[0] != 1 {
		t.Fatal("prefetch fill not counted")
	}
	w, ok := c.Lookup(3)
	if !ok || !c.LineAt(c.SetOf(3), w).Prefetch {
		t.Fatal("prefetch fill not marked as prefetched")
	}
	// The first demand hit clears the mark.
	if res := c.Access(&Access{Block: 3, Demand: true}); !res.Hit {
		t.Fatalf("expected a hit on the prefetched line, got %+v", res)
	}
	if c.LineAt(c.SetOf(3), w).Prefetch {
		t.Fatal("demand hit left the prefetch mark set")
	}
}

func TestWritebackFillNotPrefetch(t *testing.T) {
	cfg := testConfig(4, 2, 1)
	c := New(cfg, newFIFO(cfg.Geometry))
	c.Access(&Access{Block: 9, Write: true, Writeback: true})
	if c.Stats().PrefetchFills[0] != 0 {
		t.Fatal("write-back fill miscounted as prefetch")
	}
	w, ok := c.Lookup(9)
	if !ok {
		t.Fatal("write-back fill not installed")
	}
	if ln := c.LineAt(c.SetOf(9), w); !ln.Dirty {
		t.Fatal("write-back fill should install dirty")
	}
}

func TestCallbackOrderOnMissWithEviction(t *testing.T) {
	cfg := testConfig(1, 1, 1)
	p := newFIFO(cfg.Geometry)
	c := New(cfg, p)
	c.Access(&Access{Block: 0, Demand: true})
	c.Access(&Access{Block: 1, Demand: true})
	want := []string{"miss", "fill", "miss", "evict", "fill"}
	if len(p.calls) != len(want) {
		t.Fatalf("callback sequence %v, want %v", p.calls, want)
	}
	for i := range want {
		if p.calls[i] != want[i] {
			t.Fatalf("callback sequence %v, want %v", p.calls, want)
		}
	}
}

// TestNonDemandNeverTrainsPolicy pins the demand filter the cache owns:
// prefetch and write-back hits and misses never reach OnHit or OnMiss (and
// write-backs that do not allocate never reach the policy at all), while
// every fill still reaches OnFill.
func TestNonDemandNeverTrainsPolicy(t *testing.T) {
	cfg := testConfig(4, 1, 1) // direct-mapped: block 5 displaces block 1
	p := newFIFO(cfg.Geometry)
	c := New(cfg, p)
	c.Access(&Access{Block: 1})                               // prefetch miss
	c.Access(&Access{Block: 1})                               // prefetch hit
	c.Access(&Access{Block: 2, Write: true, Writeback: true}) // write-back miss
	c.Access(&Access{Block: 2, Write: true, Writeback: true}) // write-back hit
	c.WritebackNoAllocate(&Access{Block: 1, Write: true})     // non-allocating hit
	c.WritebackNoAllocate(&Access{Block: 3, Write: true})     // non-allocating miss
	c.Access(&Access{Block: 1, Demand: true})                 // demand hit
	c.Access(&Access{Block: 5, Demand: true})                 // demand miss
	if want := []string{"fill", "fill", "hit", "miss", "evict", "fill"}; !slices.Equal(p.calls, want) {
		t.Fatalf("callback sequence %v, want %v", p.calls, want)
	}
}

// TestFillOutsideCandidatesPanics: a policy that allocates at a way outside
// the filling core's candidates (here, outside its way mask) must be
// caught at the boundary, not silently break the partition.
func TestFillOutsideCandidatesPanics(t *testing.T) {
	cfg := testConfig(4, 2, 1)
	c := New(cfg, newFIFO(cfg.Geometry)) // FIFO's first pick is way 0
	c.SetWayMask(0, 0b10)
	defer func() {
		if recover() == nil {
			t.Fatal("fill at way 0 outside mask 0b10 did not panic")
		}
	}()
	c.Access(&Access{Block: 0, Demand: true})
}

func TestOccupancyByCore(t *testing.T) {
	cfg := testConfig(16, 4, 3)
	c := New(cfg, newFIFO(cfg.Geometry))
	for i := uint64(0); i < 8; i++ {
		c.Access(&Access{Block: i, Core: 0, Demand: true})
	}
	for i := uint64(100); i < 104; i++ {
		c.Access(&Access{Block: i, Core: 2, Demand: true})
	}
	occ := c.OccupancyByCore()
	if occ[0] != 8 || occ[1] != 0 || occ[2] != 4 {
		t.Fatalf("occupancy = %v, want [8 0 4]", occ)
	}
	if c.ValidLines() != 12 {
		t.Fatalf("valid lines = %d, want 12", c.ValidLines())
	}
}

func TestStatsReset(t *testing.T) {
	cfg := testConfig(4, 2, 2)
	c := New(cfg, newFIFO(cfg.Geometry))
	c.Access(&Access{Block: 1, Core: 1, Demand: true})
	c.Stats().Reset()
	if c.Stats().Accesses[1] != 0 || c.Stats().Misses[1] != 0 {
		t.Fatal("stats not cleared by Reset")
	}
	// Cache contents survive a stats reset (warm-up semantics).
	if _, ok := c.Lookup(1); !ok {
		t.Fatal("reset should not touch cache contents")
	}
}

func TestCoreOwnershipTracked(t *testing.T) {
	cfg := testConfig(4, 1, 2)
	c := New(cfg, newFIFO(cfg.Geometry))
	c.Access(&Access{Block: 0, Core: 1, Demand: true})
	res := c.Access(&Access{Block: 4, Core: 0, Demand: true})
	if !res.EvictedValid || res.Evicted.Core != 1 {
		t.Fatalf("evicted line should be attributed to core 1, got %+v", res)
	}
}

func TestPropertyNoDuplicateTagsInSet(t *testing.T) {
	cfg := testConfig(8, 4, 2)
	c := New(cfg, newFIFO(cfg.Geometry))
	f := func(blocks []uint64) bool {
		for _, b := range blocks {
			c.Access(&Access{Block: b % 4096, Core: int(b % 2), Demand: true})
		}
		// Invariant: no two valid lines in a set share a tag.
		for s := 0; s < 8; s++ {
			seen := map[uint64]bool{}
			for w := 0; w < 4; w++ {
				ln := c.LineAt(s, w)
				if !ln.Valid {
					continue
				}
				if seen[ln.Tag] {
					return false
				}
				seen[ln.Tag] = true
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestNewPanicsOnBadInput(t *testing.T) {
	bad := testConfig(63, 8, 2)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("New with invalid config did not panic")
			}
		}()
		New(bad, newFIFO(bad.Geometry))
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("New with nil policy did not panic")
			}
		}()
		New(testConfig(64, 8, 2), nil)
	}()
}

// TestResultFitsInRegisters fails if Result or EvictedLine grows past four
// fields, or Result past four words. Go's compiler keeps a struct in SSA
// values, and so in registers, only within both limits (ssa.CanSSA). A
// larger struct still comes back from a call in registers, but the caller
// then stores it to a stack temporary and reads its fields from there.
// Access returns a Result on every reference, to eight call sites in
// internal/sim. When Result had five fields, each caller stored the
// returned fields to its stack, the bools one byte at a time, and reloaded
// the bools as one word. The CPU cannot forward narrow stores to a wider
// load, so the load stalled until the stores retired. In a CPU profile of
// a detailed mixA run on the unscaled Table 3 machine (Go 1.24, Intel
// Xeon), the stalls after the L1 and the L2 Access calls of
// corePath.access held 6.9% of the samples, the two hottest instructions
// of that function.
func TestResultFitsInRegisters(t *testing.T) {
	for _, typ := range []reflect.Type{reflect.TypeOf(Result{}), reflect.TypeOf(EvictedLine{})} {
		if n := typ.NumField(); n > 4 {
			t.Errorf("%s has %d fields; the compiler spills a struct of more than four to the stack", typ, n)
		}
	}
	if size, limit := unsafe.Sizeof(Result{}), 4*unsafe.Sizeof(uintptr(0)); size > limit {
		t.Errorf("Result is %d bytes; the compiler spills a struct larger than %d to the stack", size, limit)
	}
}
