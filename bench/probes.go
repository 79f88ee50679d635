package main

import (
	"fmt"
	"time"

	"diablo/internal/kernel"
	"diablo/internal/link"
	"diablo/internal/nic"
	"diablo/internal/packet"
	"diablo/internal/sim"
	"diablo/internal/tcp"
	"diablo/internal/topology"
	"diablo/internal/vswitch"
)

// Isolated layer probes: one goroutine driving one component through its
// public constructors, priced in host nanoseconds per operation. They answer
// "what does this layer cost with nothing around it", the number to set
// beside the layer's ns_per_event inside a whole-model run. They are layer
// metrics and never end-to-end ones: a probe getting faster is a claim about
// a layer, not about the simulator.

// probe is one isolated measurement. batch runs a fixed amount of work and
// returns the number of operations it performed.
type probe struct {
	name  string
	batch func() (ops int, err error)
}

func probes() []probe {
	return []probe{
		{"sim.ev_ns", probeEngine},
		{"sim.quantum_ns", probeQuantum},
		{"kernel.handoff_ns", probeHandoff},
		{"tcp.seg_ns", probeTCP},
		{"vswitch.pkt_ns", func() (int, error) { return probeComponent(pushSwitch) }},
		{"link.pkt_ns", func() (int, error) { return probeComponent(pushLink) }},
		{"nic.pkt_ns", func() (int, error) { return probeComponent(pushNIC) }},
		{"packet.pool_ns", probePool},
	}
}

// runProbes runs every probe for about budget each and returns ns/op by
// metric name. One untimed batch warms each probe up.
func runProbes(budget time.Duration) (map[string]float64, error) {
	out := map[string]float64{}
	for _, p := range probes() {
		if _, err := p.batch(); err != nil {
			return nil, fmt.Errorf("probe %s: %w", p.name, err)
		}
		var ops int
		start := time.Now()
		for time.Since(start) < budget {
			n, err := p.batch()
			if err != nil {
				return nil, fmt.Errorf("probe %s: %w", p.name, err)
			}
			ops += n
		}
		out[p.name] = float64(time.Since(start).Nanoseconds()) / float64(ops)
	}
	return out, nil
}

// probeEngine prices the sequential engine's typed lane: a chain of
// AfterEvent records, each handler scheduling the next.
func probeEngine() (int, error) {
	const events = 200_000
	eng := sim.NewEngine()
	left := events
	eng.RegisterHandler(sim.EvAppTick, func(_ sim.Time, ev sim.Event) {
		if left--; left > 0 {
			eng.AfterEvent(sim.Nanosecond, ev)
		}
	})
	eng.AfterEvent(sim.Nanosecond, sim.Event{Kind: sim.EvAppTick})
	eng.Run() //simlint:allow schedlint the probe is a harness: it owns this engine and its run loop
	if left != 0 {
		return 0, fmt.Errorf("engine stopped with %d events left", left)
	}
	return events, nil
}

// probeQuantum prices one quantum of the partitioned engine at the
// benchmark's shape (33 partitions, 2 workers) with the least work a busy
// quantum can hold: one event per partition. The operation is the quantum.
func probeQuantum() (int, error) {
	const (
		partitions = 33
		quanta     = 2_000
		quantum    = sim.Microsecond
	)
	pe := sim.NewParallelEngine(partitions, quantum)
	pe.SetWorkers(2)
	pe.RegisterHandler(sim.EvAppTick, func(_ sim.Time, ev sim.Event) {
		ev.Tgt.(*sim.Partition).AfterEvent(quantum, ev)
	})
	for i := 0; i < partitions; i++ {
		p := pe.Partition(i)
		p.AfterEvent(quantum/2, sim.Event{Kind: sim.EvAppTick, Tgt: p})
	}
	pe.RunUntil(sim.Time(quanta * quantum)) //simlint:allow schedlint the probe is a harness: it owns this engine and its run loop
	var executed uint64
	for i := 0; i < partitions; i++ {
		executed += pe.Partition(i).Executed()
	}
	if executed != partitions*quanta {
		return 0, fmt.Errorf("executed %d events, want %d", executed, partitions*quanta)
	}
	return quanta, nil
}

// probeHandoff prices the simulated-thread hand-off: one machine, one thread
// looping Sleep(1 µs). Every Sleep parks the thread's goroutine twice (the
// syscall's CPU charge, then the sleep itself), so the operation is one
// park/resume round trip between the engine and the thread goroutine,
// including the timer and wake events that drive it.
func probeHandoff() (int, error) {
	const sleeps = 20_000
	eng := sim.NewEngine()
	kernel.RegisterEventHandlers(eng)
	topo, err := topology.New(topology.Params{ServersPerRack: 2, RacksPerArray: 1, Arrays: 1})
	if err != nil {
		return 0, err
	}
	cfg := kernel.DefaultConfig()
	wire := link.New(eng, link.EndpointFunc(func(*packet.Packet) {}), 1_000_000_000, sim.Microsecond)
	dev, err := nic.New(eng, cfg.NIC, wire)
	if err != nil {
		return 0, err
	}
	m, err := kernel.New(eng, 0, cfg, topo, dev, 1)
	if err != nil {
		return 0, err
	}
	done := 0
	m.Spawn("sleeper", func(t *kernel.Thread) {
		for ; done < sleeps; done++ {
			t.Sleep(sim.Microsecond)
		}
	})
	eng.Run() //simlint:allow schedlint the probe is a harness: it owns this engine and its run loop
	m.Shutdown()
	if done != sleeps {
		return 0, fmt.Errorf("thread slept %d times, want %d", done, sleeps)
	}
	return 2 * sleeps, nil
}

// tcpEnv is the stub host of the TCP probe: segments reach the peer
// connection after a fixed delay, nothing is lost.
type tcpEnv struct {
	eng  *sim.Engine
	peer *tcp.Conn
	// synTo, when set, receives the first SYN through HandleSyn (the
	// listener's job in the kernel).
	synTo *tcp.Conn
}

func (e *tcpEnv) Now() sim.Time                        { return e.eng.Now() }
func (e *tcpEnv) At(t sim.Time, fn func()) sim.EventID { return e.eng.At(t, fn) }
func (e *tcpEnv) Cancel(id sim.EventID)                { e.eng.Cancel(id) }
func (e *tcpEnv) NewPacket() *packet.Packet            { return &packet.Packet{} }
func (e *tcpEnv) Output(pkt *packet.Packet) {
	deliver := e.peer.Input
	if e.synTo != nil {
		deliver, e.synTo = e.synTo.HandleSyn, nil
	}
	e.eng.After(10*sim.Microsecond, func() { deliver(pkt) })
}

// probeTCP prices the protocol engine alone: a client and a server
// connection back to back over the stub host, 16 MB one way. The operation
// is one segment emitted by either side (data, ACKs, handshake).
func probeTCP() (int, error) {
	const total = 16 << 20
	eng := sim.NewEngine()
	cEnv, sEnv := &tcpEnv{eng: eng}, &tcpEnv{eng: eng}
	ca, sa := packet.Addr{Node: 0, Port: 40000}, packet.Addr{Node: 1, Port: 80}
	client, err := tcp.NewClient(cEnv, tcp.DefaultConfig(), ca, sa)
	if err != nil {
		return 0, err
	}
	server, err := tcp.NewServer(sEnv, tcp.DefaultConfig(), sa, ca)
	if err != nil {
		return 0, err
	}
	cEnv.peer, cEnv.synTo, sEnv.peer = server, server, client

	received := 0
	server.OnReadable = func() {
		n, _ := server.Read(1 << 30)
		received += n
	}
	sent := 0
	push := func() {
		for sent < total {
			n := client.Send(total-sent, nil)
			if n == 0 {
				return
			}
			sent += n
		}
	}
	client.OnConnected = push
	client.OnWritable = push
	eng.At(0, client.Open)
	eng.RunUntil(sim.Time(60 * sim.Second)) //simlint:allow schedlint the probe is a harness: it owns this engine and its run loop
	if received != total {
		return 0, fmt.Errorf("received %d of %d bytes", received, total)
	}
	return int(client.Stats.SegsOut + server.Stats.SegsOut), nil
}

// pusher builds one component on eng, draining into sink, and returns the
// function that pushes a packet into it.
type pusher func(eng *sim.Engine, sink link.Endpoint) (push func(*packet.Packet), err error)

const probeRate = 1_000_000_000 // bits per second, the model's default links

func pushLink(eng *sim.Engine, sink link.Endpoint) (func(*packet.Packet), error) {
	l := link.New(eng, sink, probeRate, 500*sim.Nanosecond)
	return func(pkt *packet.Packet) { l.Send(pkt) }, nil
}

func pushNIC(eng *sim.Engine, sink link.Endpoint) (func(*packet.Packet), error) {
	dev, err := nic.New(eng, nic.Defaults(), link.New(eng, sink, probeRate, 500*sim.Nanosecond))
	if err != nil {
		return nil, err
	}
	return func(pkt *packet.Packet) { dev.Transmit(pkt) }, nil
}

func pushSwitch(eng *sim.Engine, sink link.Endpoint) (func(*packet.Packet), error) {
	sw, err := vswitch.New(eng, vswitch.Gigabit1GShallow("probe", 2))
	if err != nil {
		return nil, err
	}
	// The switch's egress must be a link; it is the one hop between the
	// switch and the sink, and is priced with the switch.
	sw.AttachOutput(1, link.New(eng, sink, probeRate, 500*sim.Nanosecond))
	in := sw.Input(0)
	return func(pkt *packet.Packet) {
		pkt.Route = packet.MakeRoute(1)
		in.Receive(pkt)
	}, nil
}

// probeComponent pushes full-size UDP frames through one component at line
// rate (so nothing queues or drops) into a sink that releases them. A driver
// tick event paces the pushes; its cost (sim.ev_ns) is part of the figure,
// as are the events the component itself schedules.
func probeComponent(build pusher) (int, error) {
	const pkts = 50_000
	eng := sim.NewEngine()
	vswitch.RegisterEventHandlers(eng)
	nic.RegisterEventHandlers(eng)
	pool := packet.NewPool()
	delivered := 0
	push, err := build(eng, link.EndpointFunc(func(pkt *packet.Packet) {
		delivered++
		pool.Release(pkt)
	}))
	if err != nil {
		return 0, err
	}
	frame := func() *packet.Packet {
		pkt := pool.Get()
		pkt.Proto = packet.ProtoUDP
		pkt.PayloadBytes = 1400
		return pkt
	}
	first := frame()
	gap := sim.TransmitTime(first.WireBytes(), probeRate)
	pool.Release(first)
	left := pkts
	eng.RegisterHandler(sim.EvAppTick, func(_ sim.Time, ev sim.Event) {
		push(frame())
		if left--; left > 0 {
			eng.AfterEvent(gap, ev)
		}
	})
	eng.AfterEvent(gap, sim.Event{Kind: sim.EvAppTick})
	eng.Run() //simlint:allow schedlint the probe is a harness: it owns this engine and its run loop
	if delivered != pkts {
		return 0, fmt.Errorf("delivered %d of %d packets", delivered, pkts)
	}
	return pkts, nil
}

// probePool prices the packet slab pool: one Get and its Release.
func probePool() (int, error) {
	const ops = 1_000_000
	pool := packet.NewPool()
	for i := 0; i < ops; i++ {
		pool.Release(pool.Get())
	}
	if st := pool.Stats(); st.Live() != 0 || st.Gets != ops {
		return 0, fmt.Errorf("pool ledger off: %+v", st)
	}
	return ops, nil
}
