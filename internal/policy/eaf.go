package policy

import "repro/internal/cache"

// EAF implements the Evicted-Address Filter (Seshadri et al., PACT 2012) as
// the ADAPT paper describes and sizes it (§5.1, Table 2):
//
//   - A Bloom filter records the addresses of recently evicted blocks. Its
//     capacity equals the number of blocks in the cache, so it tracks a
//     working set of roughly twice the cache (cache contents + filter).
//   - On a fill, a block found in the filter was evicted prematurely and is
//     inserted with near-immediate reuse (RRPV MaxRRPV-1, i.e. 2); a block
//     not in the filter is inserted distant (MaxRRPV, i.e. 3) — or bypassed
//     in the "eaf-bp" variant of Figure 6.
//   - When the number of recorded evictions reaches the capacity, the filter
//     is cleared wholesale (Bloom filters do not support removal).
//
// The paper's analysis that "the presence of thrashing applications causes
// the filter to get full frequently", degrading EAF's tracking of
// recency-friendly applications, emerges directly from this construction.
type EAF struct {
	cache.Engine
	bits     []uint64 // Bloom filter bit array
	mask     uint64   // bit-index mask (power-of-two sized filter)
	capacity uint64   // evictions before the filter is cleared
	inserted uint64   // evictions recorded since the last clear
	clears   uint64   // number of wholesale clears
	bypass   bool

	presentFills uint64
	distantFills uint64
}

// eafBitsPerAddress sizes the Bloom filter: 8 bits per tracked address, the
// figure behind the paper's "8-bit/address, 256KB" storage entry.
const eafBitsPerAddress = 8

// eafHashes is the number of Bloom hash functions.
const eafHashes = 4

// NewEAF builds an EAF policy. It uses no Options.
func NewEAF(g cache.Geometry, opt Options) *EAF {
	capacity := uint64(g.Blocks())
	nbits := nextPow2(capacity * eafBitsPerAddress)
	return &EAF{
		Engine:   cache.NewEngine(g),
		bits:     make([]uint64, nbits/64),
		mask:     nbits - 1,
		capacity: capacity,
	}
}

func nextPow2(v uint64) uint64 {
	n := uint64(64) // floor for tiny test caches
	for n < v {
		n <<= 1
	}
	return n
}

// Name implements cache.ReplacementPolicy.
func (p *EAF) Name() string {
	if p.bypass {
		return "eaf-bp"
	}
	return "eaf"
}

// bloomHash derives the i-th bit index for a block address using distinct
// avalanche mixes of the splitmix64 finalizer family.
func (p *EAF) bloomHash(block uint64, i uint64) uint64 {
	z := block + (i+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return (z ^ (z >> 31)) & p.mask
}

func (p *EAF) bloomAdd(block uint64) {
	for i := uint64(0); i < eafHashes; i++ {
		b := p.bloomHash(block, i)
		p.bits[b>>6] |= 1 << (b & 63)
	}
}

func (p *EAF) bloomTest(block uint64) bool {
	for i := uint64(0); i < eafHashes; i++ {
		b := p.bloomHash(block, i)
		if p.bits[b>>6]&(1<<(b&63)) == 0 {
			return false
		}
	}
	return true
}

func (p *EAF) bloomClear() {
	for i := range p.bits {
		p.bits[i] = 0
	}
	p.inserted = 0
	p.clears++
}

// FillDecision allocates unless the bypass variant is active and the demand
// fill is absent from the filter (would be a distant insertion). Following
// the original EAF proposal, a bypassed address is itself recorded in the
// filter, so a prompt re-reference finds it there and allocates with
// near-immediate priority — without this, a bypassed block could never
// become cacheable again.
func (p *EAF) FillDecision(a *cache.Access, set int, valid, ways uint64) (int, bool) {
	if p.bypass && a.Demand && !p.bloomTest(a.Block) {
		p.distantFills++
		p.record(a.Block)
		return -1, false
	}
	return p.VictimFor(set, valid, ways), true
}

// record notes an address in the filter, clearing it when it reaches
// capacity.
func (p *EAF) record(block uint64) {
	p.bloomAdd(block)
	p.inserted++
	if p.inserted >= p.capacity {
		p.bloomClear()
	}
}

// OnFill inserts near-immediate if the block is in the filter, distant
// otherwise.
func (p *EAF) OnFill(a *cache.Access, set, way int) {
	if !a.Demand {
		p.SetRRPV(set, way, NonDemandRRPV(a))
		return
	}
	if p.bloomTest(a.Block) {
		p.presentFills++
		p.SetRRPV(set, way, MaxRRPV-1)
		return
	}
	p.distantFills++
	p.SetRRPV(set, way, MaxRRPV)
}

// OnEvict implements cache.EvictObserver: it records the evicted address
// in the filter, clearing the filter once it has absorbed as many addresses
// as the cache has blocks.
func (p *EAF) OnEvict(set, way int, ev cache.EvictedLine) { p.record(ev.Block) }

// Clears returns how many times the filter filled up and was reset.
func (p *EAF) Clears() uint64 { return p.clears }

// DistantFraction returns the fraction of demand fills predicted distant
// (the paper reports ~93% for EAF on the 16-core workloads).
func (p *EAF) DistantFraction() float64 {
	total := p.presentFills + p.distantFills
	if total == 0 {
		return 0
	}
	return float64(p.distantFills) / float64(total)
}

// Contains exposes the Bloom membership test for tests.
func (p *EAF) Contains(block uint64) bool { return p.bloomTest(block) }
