package packet

import "fmt"

// Pool is a deterministic slab allocator for Packets. Each engine partition
// owns one: the creator of a packet allocates from its partition's pool, the
// final consumer (socket delivery, a drop site, an RST generator) releases
// into the pool of the partition it runs on. Pools therefore exchange slots
// as packets cross partitions, but every individual pool is only ever touched
// from its own partition's single-threaded event context — no locking, and no
// scheduler-dependent state.
//
// Get recycles in strict LIFO order off the freelist. That ordering is the
// point: sync.Pool's reuse order depends on which goroutine ran last and on
// GC timing, so two runs of the same workload would hand out different packet
// identities and any identity-dependent behavior (diagnostics, slabdebug
// sites) would diverge. A plain freelist makes packet recycling a pure
// function of the event history, which the replay contract already fixes.
//
// The zero Packet from Get is indistinguishable from &Packet{} to the model:
// a nil *Pool degrades every Get to a plain heap allocation and every Release
// to a no-op, which is how the unpooled comparison mode (and direct
// construction in tests) works.
type Pool struct {
	// free is the LIFO freelist of recycled slots.
	free []*Packet
	// slabs pins the backing arrays so slot pointers stay valid for the
	// pool's lifetime. Slots are handed out in slab order, then LIFO.
	slabs [][]Packet
	stats PoolStats
}

// poolSlabBatch is how many Packets one slab growth allocates. One slab
// comfortably covers the in-flight window of a partition (NIC rings are 64
// deep, switch buffers a few hundred KB).
const poolSlabBatch = 256

// Packet lifecycle states (Packet.pstate).
const (
	psUntracked uint8 = iota // heap-constructed, GC-owned
	psLive                   // handed out by Get, awaiting exactly one Release
	psReleased               // parked on a freelist
)

// NewPool returns an empty pool; the first Get grows the first slab.
func NewPool() *Pool { return &Pool{} }

// Get returns a zeroed live packet. On a nil pool it returns a plain
// heap-allocated (untracked) packet.
func (p *Pool) Get() *Packet {
	if p == nil {
		return &Packet{}
	}
	if len(p.free) == 0 {
		p.grow()
	}
	last := len(p.free) - 1
	pkt := p.free[last]
	p.free[last] = nil
	p.free = p.free[:last]
	gen := pkt.pgen
	*pkt = Packet{pstate: psLive, pgen: gen + 1}
	p.stats.Gets++
	slabdebugGet(pkt)
	return pkt
}

// grow adds one slab and parks its slots on the freelist in reverse index
// order, so the next Gets hand out slab[0], slab[1], ... deterministically.
func (p *Pool) grow() {
	slab := make([]Packet, poolSlabBatch)
	p.slabs = append(p.slabs, slab)
	p.stats.Slabs++
	for i := len(slab) - 1; i >= 0; i-- {
		slab[i].pstate = psReleased
		p.free = append(p.free, &slab[i])
	}
}

// Release parks a live packet on this pool's freelist, zeroing it so the
// payload reference is dropped immediately and the next Get starts from a
// clean slot. Releasing an untracked (heap) packet or through a nil pool is
// a no-op; releasing the same packet twice panics — a double release would
// put one slot on two freelists and silently corrupt later packets.
func (p *Pool) Release(pkt *Packet) {
	if pkt == nil || pkt.pstate == psUntracked {
		return
	}
	if pkt.pstate == psReleased {
		panic(fmt.Sprintf("packet: double release of pooled packet (gen %d)%s", pkt.pgen, slabdebugSite(pkt)))
	}
	if p == nil {
		// A pooled packet dropped through an unpooled component is a wiring
		// bug; keep it live so the leak-balance gate reports the imbalance
		// instead of papering over it here.
		return
	}
	slabdebugRelease(pkt)
	gen := pkt.pgen
	*pkt = Packet{pstate: psReleased, pgen: gen}
	p.free = append(p.free, pkt)
	p.stats.Releases++
}

// PoolStats counts pool traffic. Because packets may be released into a
// different partition's pool than they were allocated from, Gets == Releases
// only holds summed across all pools of a cluster (see PoolStats.Add).
type PoolStats struct {
	Gets     uint64 `json:"gets"`
	Releases uint64 `json:"releases"`
	Slabs    uint64 `json:"slabs"`
}

// Add accumulates other into s.
func (s *PoolStats) Add(other PoolStats) {
	s.Gets += other.Gets
	s.Releases += other.Releases
	s.Slabs += other.Slabs
}

// Live returns outstanding handles: Gets - Releases (meaningful on a summed
// PoolStats; per-pool values go negative when packets migrate).
func (s PoolStats) Live() int64 { return int64(s.Gets) - int64(s.Releases) }

// Stats returns a snapshot of the pool's counters (zero for a nil pool).
func (p *Pool) Stats() PoolStats {
	if p == nil {
		return PoolStats{}
	}
	return p.stats
}

// FreeLen reports the current freelist depth (tests).
func (p *Pool) FreeLen() int {
	if p == nil {
		return 0
	}
	return len(p.free)
}
