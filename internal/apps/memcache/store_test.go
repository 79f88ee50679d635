package memcache

import (
	"runtime"
	"testing"

	"diablo/internal/sim"
	"diablo/internal/workload"
)

// denseStore is the reference a Store must agree with: a plain copy of every
// size, by key, made at clone time.
type denseStore map[uint64]int

func (d denseStore) clone() denseStore {
	c := make(denseStore, len(d))
	for k, v := range d {
		c[k] = v
	}
	return c
}

func snapshot(s *Store, keys uint64) denseStore {
	d := denseStore{}
	for k := uint64(0); k < keys; k++ {
		if n, ok := s.Get(k); ok {
			d[k] = n
		}
	}
	return d
}

// TestStoreCloneEquivalence drives random Get/Set/Len sequences on several
// clones of one prewarmed store (and on a clone of a clone) against dense
// copies, and checks that a SET never shows through to the template or to a
// sibling.
func TestStoreCloneEquivalence(t *testing.T) {
	p := workload.ETC()
	p.Keys = 300
	const keys = 400 // a quarter of the SETs land past the prewarmed range
	template := Prewarm(p)
	want := snapshot(template, keys)
	if len(want) != p.Keys || template.Len() != p.Keys {
		t.Fatalf("prewarmed %d keys (Len %d), want %d", len(want), template.Len(), p.Keys)
	}
	rng := sim.NewRand(7)
	stores := []*Store{template.Clone(0), template.Clone(4), template.Clone(64)}
	refs := []denseStore{want.clone(), want.clone(), want.clone()}
	for step := 0; step < 20_000; step++ {
		if step == 10_000 { // a clone of a clone copies a non-empty overlay
			stores = append(stores, stores[1].Clone(8))
			refs = append(refs, refs[1].clone())
		}
		i := rng.Intn(len(stores))
		s, ref := stores[i], refs[i]
		key := uint64(rng.Intn(keys))
		switch rng.Intn(3) {
		case 0:
			n, ok := s.Get(key)
			if wn, wok := ref[key]; n != wn || ok != wok {
				t.Fatalf("step %d store %d: Get(%d) = %d,%v, want %d,%v", step, i, key, n, ok, wn, wok)
			}
		case 1:
			n := 1 + rng.Intn(4096)
			s.Set(key, n)
			ref[key] = n
		default:
			if s.Len() != len(ref) {
				t.Fatalf("step %d store %d: Len = %d, want %d", step, i, s.Len(), len(ref))
			}
		}
	}
	for i, s := range stores {
		if got := snapshot(s, keys); len(got) != len(refs[i]) || s.Len() != len(refs[i]) {
			t.Fatalf("store %d holds %d keys (Len %d), want %d", i, len(got), s.Len(), len(refs[i]))
		}
	}

	a, b := template.Clone(0), template.Clone(0)
	a.Set(3, 9999)
	a.Set(keys+1, 5)
	if n, _ := a.Get(3); n != 9999 {
		t.Fatalf("clone reads %d after its own SET, want 9999", n)
	}
	for name, s := range map[string]*Store{"template": template, "sibling": b} {
		if n, _ := s.Get(3); n != want[3] {
			t.Fatalf("%s reads %d for a key SET on another clone, want %d", name, n, want[3])
		}
		if _, ok := s.Get(keys + 1); ok || s.Len() != p.Keys {
			t.Fatalf("%s sees a new key SET on another clone (Len %d)", name, s.Len())
		}
	}
	if got := snapshot(template, keys); len(got) != len(want) {
		t.Fatalf("template holds %d keys after its clones' SETs, want %d", len(got), len(want))
	}
}

// TestStoreCloneBytes holds a server's store at the cost of its own SETs:
// cloning a prewarmed 10,000-key store must not copy the size table.
func TestStoreCloneBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	// sets is about a 496-node run's share of SETs per server.
	const clones, sets, budget = 100, 48, 2048
	template := Prewarm(workload.ETC())
	keep := make([]*Store, clones)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	for i := range keep {
		keep[i] = template.Clone(sets)
	}
	runtime.ReadMemStats(&ms)
	per := (ms.TotalAlloc - before) / clones
	t.Logf("Clone(%d) of a %d-key store allocates %d B", sets, template.Len(), per)
	if per > budget {
		t.Fatalf("cloning a prewarmed store allocates %d B, want at most %d", per, budget)
	}
}
