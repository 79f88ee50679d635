package kernel_test

import (
	"testing"

	"diablo/internal/apps/memcache"
	"diablo/internal/core"
	"diablo/internal/kernel"
	"diablo/internal/sim"
	"diablo/internal/topology"
)

// resumed sums the coroutine resumes of every machine of a cluster.
func resumed(machines []*kernel.Machine) (n uint64) {
	for _, m := range machines {
		n += kernel.Resumes(m)
	}
	return n
}

// TestModelRunsSwitchNoStack: every in-tree app — memcached's clients,
// dispatcher and workers, incast's acceptor, handlers, clients and workers,
// and the background daemon — is a Program, so a model run resumes no
// coroutine. An app written with Spawn would bring the stack switch back.
func TestModelRunsSwitchNoStack(t *testing.T) {
	mc := func(proto memcache.Proto, churn int) func(func(*core.Cluster)) error {
		return func(onCluster func(*core.Cluster)) error {
			cfg := core.DefaultMemcached()
			cfg.Topology = topology.Params{ServersPerRack: 8, RacksPerArray: 2, Arrays: 1}
			cfg.ServersPerRack = 1
			cfg.RequestsPerClient = 8
			cfg.StartSpread = sim.Millisecond
			cfg.Proto, cfg.ChurnEvery = proto, churn
			cfg.OnCluster = onCluster
			res, err := core.RunMemcached(cfg)
			if err == nil && res.ClientsDone != res.Clients {
				t.Errorf("%d of %d clients finished", res.ClientsDone, res.Clients)
			}
			return err
		}
	}
	incast := func(epoll bool) func(func(*core.Cluster)) error {
		return func(onCluster func(*core.Cluster)) error {
			cfg := core.DefaultIncast(4)
			cfg.Iterations, cfg.Epoll, cfg.OnCluster = 3, epoll, onCluster
			_, err := core.RunIncast(cfg)
			return err
		}
	}
	for _, run := range []struct {
		name string
		run  func(func(*core.Cluster)) error
	}{
		{"memcached UDP", mc(memcache.UDP, 0)},
		{"memcached TCP", mc(memcache.TCP, 0)},
		{"memcached TCP churn", mc(memcache.TCP, 2)},
		{"incast pthread", incast(false)},
		{"incast epoll", incast(true)},
	} {
		t.Run(run.name, func(t *testing.T) {
			var machines []*kernel.Machine
			if err := run.run(func(c *core.Cluster) { machines = c.Machines }); err != nil {
				t.Fatal(err)
			}
			var syscalls uint64
			for _, m := range machines {
				syscalls += m.Stats.Syscalls
			}
			if syscalls == 0 {
				t.Fatal("the run made no syscalls")
			}
			if n := resumed(machines); n != 0 {
				t.Fatalf("the run resumed %d coroutines", n)
			}
		})
	}
}
