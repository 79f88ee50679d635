package core

import (
	"bytes"
	"runtime"
	"testing"

	"diablo/internal/fault"
	"diablo/internal/sim"
)

// poolAudit captures a run's cluster, closes the packet ledger after the run
// and returns the summed pool stats.
func poolAudit(t *testing.T, run func(onCluster func(*Cluster))) (gets, releases uint64, live int64) {
	t.Helper()
	var cluster *Cluster
	run(func(c *Cluster) { cluster = c })
	if cluster == nil {
		t.Fatal("run did not observe its cluster")
	}
	if !cluster.Pooled() {
		t.Fatal("cluster is not pooled")
	}
	cluster.ReleaseInFlight()
	st := cluster.PacketPoolStats()
	return st.Gets, st.Releases, st.Live()
}

// TestMemcachedPacketLeakBalance is the lifecycle ledger gate on the UDP
// request/response path: across a full memcached run every pool Get must be
// matched by exactly one Release once the halted cluster's queued and
// in-flight packets are swept back — on the shared queue and on per-partition
// queues alike.
func TestMemcachedPacketLeakBalance(t *testing.T) {
	for _, partitions := range []int{0, 2} {
		gets, releases, live := poolAudit(t, func(onCluster func(*Cluster)) {
			cfg := smallMemcached()
			cfg.RequestsPerClient = 15
			cfg.Partitions = partitions
			cfg.OnCluster = onCluster
			if _, err := RunMemcached(cfg); err != nil {
				t.Fatal(err)
			}
		})
		if gets == 0 {
			t.Fatalf("partitions=%d: pooled memcached run allocated no packets from the pools", partitions)
		}
		if live != 0 || gets != releases {
			t.Fatalf("partitions=%d: packet leak: %d gets, %d releases, %d live", partitions, gets, releases, live)
		}
	}
}

// TestFaultedIncastPacketLeakBalance runs the same ledger gate over the TCP
// incast collapse under a lossy fault window: retransmissions, switch-buffer
// drops and fault-layer drops all exercise release sites the healthy UDP
// path never reaches. Each plan must drop at the site it names: a lossy
// edge link on the wire, a degraded ToR ingress port in the switch.
func TestFaultedIncastPacketLeakBalance(t *testing.T) {
	for _, tc := range []struct {
		name  string
		plan  func(seed uint64) *fault.Plan
		drops func(c *Cluster) uint64
	}{
		{"lossy-edge", func(seed uint64) *fault.Plan {
			return fault.NewPlan(seed).DegradeEdge(0, fault.Down, 0, 600*sim.Second, 0.1, 0)
		}, func(c *Cluster) uint64 { return c.FaultDrops() + c.SwitchDrops() }},
		{"degraded-tor-port", func(seed uint64) *fault.Plan {
			return fault.NewPlan(seed).DegradePort(fault.ToR, 0, 1, 0, 600*sim.Second, 0.05, 0.05)
		}, func(c *Cluster) (n uint64) {
			for _, sw := range c.Tors {
				n += sw.Stats.FaultDrops.Packets
			}
			return n
		}},
	} {
		var drops uint64
		gets, releases, live := poolAudit(t, func(onCluster func(*Cluster)) {
			cfg := DefaultIncast(12)
			cfg.Iterations = 8
			cfg.Faults = tc.plan(cfg.Seed)
			var cluster *Cluster
			cfg.OnCluster = func(c *Cluster) {
				cluster = c
				onCluster(c)
			}
			if _, err := RunIncast(cfg); err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			drops = tc.drops(cluster)
		})
		if gets == 0 {
			t.Fatalf("%s: pooled incast run allocated no packets from the pools", tc.name)
		}
		if drops == 0 {
			t.Fatalf("%s: faulted incast dropped nothing; the drop release sites went unexercised", tc.name)
		}
		if live != 0 || gets != releases {
			t.Fatalf("%s: packet leak under faults: %d gets, %d releases, %d live", tc.name, gets, releases, live)
		}
	}
}

// TestPooledManifestInvariance proves the slab pools are result-invisible:
// at every worker count, the pooled and unpooled runs of the same observed
// workload must produce byte-identical obs manifests — no normalization,
// since pooling must not perturb a single observable, engine fields included.
func TestPooledManifestInvariance(t *testing.T) {
	ocfg := ObserveConfig{TraceEvents: -1}
	manifest := func(workers int, unpooled bool) []byte {
		cfg := observedMemcached()
		cfg.Partitions = workers
		cfg.Unpooled = unpooled
		_, o, err := RunMemcachedObserved(cfg, ocfg)
		if err != nil {
			t.Fatalf("workers=%d unpooled=%v: %v", workers, unpooled, err)
		}
		m := o.BuildManifest("pool-invariance", cfg.Seed, nil)
		var buf bytes.Buffer
		if err := m.WriteJSON(&buf); err != nil {
			t.Fatalf("workers=%d unpooled=%v: %v", workers, unpooled, err)
		}
		return buf.Bytes()
	}
	for _, w := range []int{1, 2, runtime.NumCPU()} {
		pooled := manifest(w, false)
		unpooled := manifest(w, true)
		if !bytes.Equal(pooled, unpooled) {
			i := 0
			for i < len(pooled) && i < len(unpooled) && pooled[i] == unpooled[i] {
				i++
			}
			lo := max(0, i-80)
			t.Errorf("workers=%d: pooled manifest diverges from unpooled near byte %d:\npooled:   %q\nunpooled: %q",
				w, i, pooled[lo:min(i+80, len(pooled))], unpooled[lo:min(i+80, len(unpooled))])
		}
	}
}
