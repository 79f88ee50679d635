// Package kernel implements DIABLO's simulated operating system: the layer
// that made the paper's results "change with the version of the full
// software stack". Each simulated server runs a Machine — a single fixed-CPI
// core (the paper's server timing model), a preemptive scheduler over threads
// whose bodies are programs stepped in engine context, syscall costs, a socket
// layer with blocking and epoll interfaces, a NIC device driver with interrupt
// mitigation and NAPI polling, and the TCP/UDP protocol engines.
//
// Unlike DIABLO we cannot boot an unmodified Linux binary; instead the
// timing-relevant kernel mechanisms are modeled explicitly and applications
// are real Go code executing (simulated) syscalls. All software costs are
// instruction counts converted through the fixed-CPI CPU model, and every
// cost constant lives in a Profile so kernel versions are swappable
// (2.6.39.3 vs 3.5.7, §4.2 "Impact of target operating system").
package kernel

import (
	"fmt"

	"diablo/internal/sim"
)

// Profile is a kernel-version cost model. Instruction counts are
// order-of-magnitude figures for the eras in question (lmbench-style syscall
// and context-switch costs, per-packet softirq costs consistent with
// ~µs-per-packet stacks of the period); the paper's conclusions depend on
// their relative weight, not their exact values.
type Profile struct {
	Name string

	// SyscallInstr is the base user/kernel crossing cost charged on every
	// syscall (entry + exit + dispatch).
	SyscallInstr int64

	// CtxSwitchInstr is charged when the scheduler switches between two
	// different threads (register state + cache disturbance).
	CtxSwitchInstr int64

	// WakeupInstr is charged when a blocked thread is made runnable
	// (try_to_wake_up, runqueue manipulation).
	WakeupInstr int64

	// SpawnInstr is the thread-creation cost (clone).
	SpawnInstr int64

	// TimeSlice is the scheduler quantum for round-robin preemption among
	// runnable threads.
	TimeSlice sim.Duration

	// IRQInstr is the hardware-interrupt entry/acknowledge cost preceding a
	// NAPI poll.
	IRQInstr int64

	// RxUDPInstr / RxTCPInstr are the per-packet softirq receive-path costs
	// (driver + IP + transport demux + socket queueing).
	RxUDPInstr, RxTCPInstr int64

	// TxUDPInstr / TxTCPInstr are the per-packet transmit-path costs.
	TxUDPInstr, TxTCPInstr int64

	// CopyPerByte is the user/kernel copy cost in instructions per byte,
	// charged on receive; transmit is zero-copy (the paper's NIC models
	// scatter/gather DMA).
	CopyPerByte float64

	// AcceptInstr / ConnectInstr are the connection-establishment syscall
	// costs beyond SyscallInstr.
	AcceptInstr, ConnectInstr int64

	// EpollInstr is the epoll_wait dispatch overhead beyond SyscallInstr.
	EpollInstr int64
}

// Validate reports nonsensical profiles.
func (p *Profile) Validate() error {
	if p.SyscallInstr <= 0 || p.TimeSlice <= 0 {
		return fmt.Errorf("kernel profile %q: SyscallInstr and TimeSlice must be positive", p.Name)
	}
	if p.RxUDPInstr <= 0 || p.RxTCPInstr <= 0 || p.TxUDPInstr <= 0 || p.TxTCPInstr <= 0 {
		return fmt.Errorf("kernel profile %q: per-packet costs must be positive", p.Name)
	}
	if p.CopyPerByte < 0 {
		return fmt.Errorf("kernel profile %q: negative CopyPerByte", p.Name)
	}
	return nil
}

// Linux2639 models the 2.6.39.3 kernel used in most of the paper's
// experiments.
func Linux2639() Profile {
	return Profile{
		Name:           "linux-2.6.39.3",
		SyscallInstr:   1900,
		CtxSwitchInstr: 6000,
		WakeupInstr:    4000,
		SpawnInstr:     40000,
		TimeSlice:      6 * sim.Millisecond,
		IRQInstr:       4500,
		RxUDPInstr:     9000,
		RxTCPInstr:     8300,
		TxUDPInstr:     7200,
		TxTCPInstr:     6600,
		CopyPerByte:    0.30,
		AcceptInstr:    7600,
		ConnectInstr:   7000,
		EpollInstr:     1300,
	}
}

// Linux357 models the 3.5.7 kernel: a leaner networking stack and a more
// responsive scheduler (§4.2 reports nearly halved request latency and a
// thinner tail at 2,000 nodes).
func Linux357() Profile {
	return Profile{
		Name:           "linux-3.5.7",
		SyscallInstr:   1150,
		CtxSwitchInstr: 3300,
		WakeupInstr:    1700,
		SpawnInstr:     34000,
		TimeSlice:      3 * sim.Millisecond,
		IRQInstr:       2600,
		RxUDPInstr:     2900,
		RxTCPInstr:     5100,
		TxUDPInstr:     2400,
		TxTCPInstr:     4200,
		CopyPerByte:    0.18,
		AcceptInstr:    4200,
		ConnectInstr:   3900,
		EpollInstr:     700,
	}
}

// IdealHost returns a near-zero-cost host profile for network-only baseline
// simulations — the ns2-style comparison in Figure 6a, where "traditional
// network simulators focus on network protocols but not the implementation
// of the OS network stack". Protocol behaviour is identical; endpoint
// software costs essentially nothing.
func IdealHost() Profile {
	return Profile{
		Name:           "ideal-host",
		SyscallInstr:   1,
		CtxSwitchInstr: 1,
		WakeupInstr:    1,
		SpawnInstr:     1,
		TimeSlice:      sim.Millisecond,
		IRQInstr:       1,
		RxUDPInstr:     1,
		RxTCPInstr:     1,
		TxUDPInstr:     1,
		TxTCPInstr:     1,
		CopyPerByte:    0,
		AcceptInstr:    1,
		ConnectInstr:   1,
		EpollInstr:     1,
	}
}

// ProfileByName returns a named profile ("2.6.39", "3.5.7", "ideal").
func ProfileByName(name string) (Profile, error) {
	switch name {
	case "2.6.39", "2.6.39.3", "linux-2.6.39.3":
		return Linux2639(), nil
	case "3.5.7", "linux-3.5.7":
		return Linux357(), nil
	case "ideal", "ideal-host":
		return IdealHost(), nil
	default:
		return Profile{}, fmt.Errorf("kernel: unknown profile %q (known: %v)", name, ProfileNames())
	}
}

// ProfileNames lists the canonical names of every built-in profile, in a
// fixed order — the enumerable kernel axis of a campaign sweep.
func ProfileNames() []string {
	return []string{Linux2639().Name, Linux357().Name, IdealHost().Name}
}
