package packet

import "testing"

// Recycling must be a pure function of the Get/Release history: LIFO off the
// freelist, slab-order for fresh slots.
func TestPoolDeterministicLIFO(t *testing.T) {
	p := NewPool()
	a, b, c := p.Get(), p.Get(), p.Get()
	if a == b || b == c || a == c {
		t.Fatal("distinct gets must return distinct slots")
	}
	p.Release(b)
	p.Release(a)
	if got := p.Get(); got != a {
		t.Fatalf("LIFO violated: expected the last-released slot back first")
	}
	if got := p.Get(); got != b {
		t.Fatalf("LIFO violated on second recycle")
	}
	// A second pool driven by the same history hands out the same sequence
	// of slab indexes.
	q := NewPool()
	qa, qb, _ := q.Get(), q.Get(), q.Get()
	q.Release(qb)
	q.Release(qa)
	if q.Get() != qa || q.Get() != qb {
		t.Fatal("recycle order must replay identically across pools")
	}
}

func TestPoolGetReturnsZeroedPacket(t *testing.T) {
	p := NewPool()
	pkt := p.Get()
	pkt.Src = Addr{Node: 3, Port: 80}
	pkt.Route = MakeRoute(1, 2)
	pkt.Hop = 1
	pkt.Msg = Msg{Kind: 1, A: 7}
	pkt.Bounds = &[]Bound{{EndSeq: 9}}
	pkt.PayloadBytes = 99
	p.Release(pkt)
	got := p.Get()
	if got != pkt {
		t.Fatal("expected the released slot back")
	}
	if got.Src != (Addr{}) || got.Route.Len() != 0 || got.Hop != 0 ||
		got.Msg != (Msg{}) || got.Bounds != nil || got.PayloadBytes != 0 {
		t.Fatalf("recycled packet not zeroed: %+v", got)
	}
	if got.pgen != 2 {
		t.Fatalf("generation = %d, want 2 (two Gets of the slot)", got.pgen)
	}
}

func TestPoolSlabGrowth(t *testing.T) {
	p := NewPool()
	seen := make(map[*Packet]bool)
	for i := 0; i < poolSlabBatch+1; i++ {
		pkt := p.Get()
		if seen[pkt] {
			t.Fatal("slot handed out twice while live")
		}
		seen[pkt] = true
	}
	if s := p.Stats(); s.Slabs != 2 || s.Gets != poolSlabBatch+1 {
		t.Fatalf("stats after overflow: %+v", s)
	}
}

func TestPoolNilSafety(t *testing.T) {
	var p *Pool
	pkt := p.Get()
	if pkt == nil || pkt.pstate != psUntracked {
		t.Fatal("nil pool must degrade to heap allocation")
	}
	p.Release(pkt) // must not panic
	if p.Stats() != (PoolStats{}) || p.FreeLen() != 0 {
		t.Fatal("nil pool must report zero stats")
	}
	// Untracked packets (direct construction) release as no-ops on real
	// pools too — that is what keeps unpooled runs byte-identical.
	q := NewPool()
	q.Release(&Packet{})
	q.Release(&Packet{})
	if q.Stats().Releases != 0 {
		t.Fatal("untracked release must not count")
	}
}

func TestPoolDoubleReleasePanics(t *testing.T) {
	p := NewPool()
	pkt := p.Get()
	p.Release(pkt)
	defer func() {
		if recover() == nil {
			t.Fatal("double release must panic")
		}
	}()
	p.Release(pkt)
}

func TestPoolStatsMigration(t *testing.T) {
	// A packet allocated on pool A and released on pool B balances only in
	// the sum — exactly the property the cluster-level leak gate checks.
	a, b := NewPool(), NewPool()
	pkt := a.Get()
	b.Release(pkt)
	var sum PoolStats
	sum.Add(a.Stats())
	sum.Add(b.Stats())
	if sum.Live() != 0 {
		t.Fatalf("summed live = %d, want 0", sum.Live())
	}
	if a.Stats().Live() == 0 {
		t.Fatal("per-pool live should be nonzero after migration")
	}
	if b.FreeLen() != 1 {
		t.Fatal("slot must land on the releasing pool's freelist")
	}
}
