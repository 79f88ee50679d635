package core

import (
	"testing"

	"diablo/internal/apps/memcache"
	"diablo/internal/kernel"
	"diablo/internal/sim"
	"diablo/internal/topology"
)

// smallMemcached returns a fast one-array configuration for tests.
func smallMemcached() MemcachedConfig {
	cfg := DefaultMemcached()
	cfg.Arrays = 1
	cfg.RequestsPerClient = 25
	return cfg
}

func TestMemcachedUDPBasics(t *testing.T) {
	res, err := RunMemcached(smallMemcached())
	if err != nil {
		t.Fatal(err)
	}
	if res.ClientsDone != res.Clients {
		t.Fatalf("only %d/%d clients finished", res.ClientsDone, res.Clients)
	}
	if res.Servers != 32 || res.Clients != 464 {
		t.Fatalf("layout: %d servers %d clients", res.Servers, res.Clients)
	}
	want := uint64(res.Clients) * uint64(25-5) // warmup=5 discarded
	if res.Samples != want {
		t.Fatalf("samples = %d, want %d", res.Samples, want)
	}
	// §4.2: no packet retransmission due to switch buffer overruns, and
	// moderate CPU utilization.
	if res.SwitchDrops != 0 {
		t.Fatalf("switch drops = %d, want 0", res.SwitchDrops)
	}
	if res.MeanUtil > 0.5 {
		t.Fatalf("server util = %.2f, want < 0.5", res.MeanUtil)
	}
	// Latency sanity: median tens of µs.
	p50 := res.Overall.Percentile(0.5)
	if p50 < 10*sim.Microsecond || p50 > 500*sim.Microsecond {
		t.Fatalf("p50 = %v, want tens of µs", p50)
	}
}

func TestMemcachedHopOrdering(t *testing.T) {
	cfg := smallMemcached()
	cfg.Arrays = 2 // enable 2-hop traffic
	cfg.RequestsPerClient = 30
	res, err := RunMemcached(cfg)
	if err != nil {
		t.Fatal(err)
	}
	local := res.ByHop[topology.Local].Percentile(0.5)
	oneHop := res.ByHop[topology.OneHop].Percentile(0.5)
	twoHop := res.ByHop[topology.TwoHop].Percentile(0.5)
	if !(local < oneHop && oneHop < twoHop) {
		t.Fatalf("median latency not ordered by hops: %v / %v / %v", local, oneHop, twoHop)
	}
	// At two arrays, half the requests cross the datacenter switch.
	frac := float64(res.ByHop[topology.TwoHop].Count()) / float64(res.Samples)
	if frac < 0.40 || frac > 0.60 {
		t.Fatalf("2-hop fraction = %.2f, want ~0.5", frac)
	}
}

func TestMemcachedLongTailExists(t *testing.T) {
	cfg := smallMemcached()
	cfg.Arrays = 4
	cfg.RequestsPerClient = 40
	res, err := RunMemcached(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's headline: a small number of requests finish orders of
	// magnitude slower than the median.
	p50, max := res.Overall.Percentile(0.5), res.Overall.Max()
	if max < 10*p50 {
		t.Fatalf("no long tail: p50=%v max=%v", p50, max)
	}
}

func TestMemcachedTCPWorks(t *testing.T) {
	cfg := smallMemcached()
	cfg.Proto = memcache.TCP
	res, err := RunMemcached(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.ClientsDone != res.Clients {
		t.Fatalf("only %d/%d clients finished", res.ClientsDone, res.Clients)
	}
	if res.SwitchDrops != 0 {
		t.Fatalf("TCP run dropped %d packets", res.SwitchDrops)
	}
}

func TestMemcachedChurnExercisesAccept(t *testing.T) {
	cfg := smallMemcached()
	cfg.Proto = memcache.TCP
	cfg.ChurnEvery = 5
	res, err := RunMemcached(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.ClientsDone != res.Clients {
		t.Fatalf("churn broke completion: %d/%d", res.ClientsDone, res.Clients)
	}
}

func TestMemcachedDeterminism(t *testing.T) {
	cfg := smallMemcached()
	cfg.RequestsPerClient = 10
	a, err := RunMemcached(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunMemcached(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Overall.Mean() != b.Overall.Mean() || a.Elapsed != b.Elapsed || a.Samples != b.Samples {
		t.Fatalf("non-deterministic: %v/%v vs %v/%v", a.Overall.Mean(), a.Elapsed, b.Overall.Mean(), b.Elapsed)
	}
}

func TestNewerKernelHalvesLatency(t *testing.T) {
	// Figure 14's mechanism at reduced scale: 3.5.7 must beat 2.6.39
	// noticeably on mean request latency.
	mean := func(p kernel.Profile) sim.Duration {
		cfg := smallMemcached()
		cfg.Use10G = true
		cfg.Profile = p
		res, err := RunMemcached(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.Overall.Mean()
	}
	old := mean(kernel.Linux2639())
	newer := mean(kernel.Linux357())
	if float64(newer) > 0.8*float64(old) {
		t.Fatalf("3.5.7 mean %v not clearly better than 2.6.39 mean %v", newer, old)
	}
}

func TestFigure8Shapes(t *testing.T) {
	th, lat, err := Figure8(Sweep{Senders: []int{2, 8, 14}, Requests: 200})
	if err != nil {
		t.Fatal(err)
	}
	if len(th) != 2 || len(lat) != 2 {
		t.Fatalf("want 2 systems, got %d/%d", len(th), len(lat))
	}
	for _, s := range th {
		// Throughput grows with offered load.
		if !(s.Y[0] < s.Y[2]) {
			t.Fatalf("%s throughput not increasing: %v", s.Name, s.Y)
		}
	}
	for _, s := range lat {
		if s.Y[0] <= 0 {
			t.Fatalf("%s zero latency", s.Name)
		}
	}
}

func TestEngineComparisonSpeedup(t *testing.T) {
	seq, par := EngineComparison(8, 50_000)
	if seq <= 0 || par <= 0 {
		t.Fatalf("rates: seq=%v par=%v", seq, par)
	}
	t.Logf("sequential %.0f ev/s, parallel %.0f ev/s (%.1fx)", seq, par, par/seq)
}
