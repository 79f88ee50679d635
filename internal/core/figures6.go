package core

import (
	"fmt"

	"diablo/internal/cpu"
	"diablo/internal/kernel"
	"diablo/internal/metrics"
	"diablo/internal/vswitch"
)

// incastSenders is the Figure 6 x-axis: up to the paper's 24 switch ports.
var incastSenders = []int{1, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22, 24}

// Figure6a reproduces "Reproducing the goodput of TCP Incast" on the 1 Gbps
// shallow-buffer switch: the DIABLO model (abstract VOQ switch + full
// software stack), an ns2-style baseline (drop-tail queues, near-zero-cost
// hosts), and the real-hardware proxy (shared-buffer commodity switch).
// Each series maps sender count to average application goodput in Mbps.
func Figure6a(sweep Sweep) ([]*metrics.Series, error) {
	sweep = sweep.withDefaults(0, incastSenders)
	type curve struct {
		name string
		cfg  func(n int) IncastConfig
	}
	curves := []curve{
		{"DIABLO (VOQ model, full stack)", func(n int) IncastConfig {
			return DefaultIncast(n)
		}},
		{"ns2-style (drop-tail, ideal hosts)", func(n int) IncastConfig {
			c := DefaultIncast(n)
			c.Switch = vswitch.NS2DropTail("tor", 0)
			c.CPU = cpu.GHz(1000) // endpoint software is free
			c.Profile = kernel.IdealHost()
			return c
		}},
		{"real hardware proxy (shared-buffer switch)", func(n int) IncastConfig {
			c := DefaultIncast(n)
			c.Switch = vswitch.SharedBufferCommodity("tor", 0)
			c.CPU = cpu.GHz(3) // the testbed's 3 GHz Xeons
			return c
		}},
	}
	var out []*metrics.Series
	for _, cv := range curves {
		s := &metrics.Series{Name: cv.name, XLabel: "senders", YLabel: "goodput_mbps"}
		for _, n := range sweep.Senders {
			cfg := cv.cfg(n)
			cfg.Iterations = sweep.Iterations
			cfg.Seed = sweep.Seed
			res, err := RunIncast(cfg)
			if err != nil {
				return nil, fmt.Errorf("figure 6a %q n=%d: %w", cv.name, n, err)
			}
			s.Append(float64(n), res.GoodputBps/1e6)
		}
		out = append(out, s)
	}
	return out, nil
}

// Figure6b reproduces the 10 Gbps incast experiment: the same switch and TCP
// configuration on a 10 Gbps fabric, sweeping client syscall style (pthread
// vs epoll) and CPU speed (4 GHz vs 2 GHz). "CPU speed and choice of OS
// syscalls significantly affects the application throughput."
func Figure6b(sweep Sweep) ([]*metrics.Series, error) {
	sweep = sweep.withDefaults(0, incastSenders)
	type variant struct {
		name  string
		ghz   float64
		epoll bool
	}
	variants := []variant{
		{"pthread 4GHz", 4, false},
		{"epoll 4GHz", 4, true},
		{"pthread 2GHz", 2, false},
		{"epoll 2GHz", 2, true},
	}
	var out []*metrics.Series
	for _, v := range variants {
		s := &metrics.Series{Name: v.name, XLabel: "senders", YLabel: "goodput_mbps"}
		for _, n := range sweep.Senders {
			cfg := DefaultIncast(n)
			cfg.Switch = vswitch.TenGigLowLatency("tor", 0)
			cfg.CPU = cpu.GHz(v.ghz)
			cfg.Epoll = v.epoll
			cfg.Iterations = sweep.Iterations
			cfg.Seed = sweep.Seed
			res, err := RunIncast(cfg)
			if err != nil {
				return nil, fmt.Errorf("figure 6b %q n=%d: %w", v.name, n, err)
			}
			s.Append(float64(n), res.GoodputBps/1e6)
		}
		out = append(out, s)
	}
	return out, nil
}
