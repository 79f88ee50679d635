// Quickstart: build a tiny two-rack cluster, run a UDP ping-pong and a TCP
// transfer across racks, and print what the simulator observed.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"diablo"
)

func main() {
	// A 2-rack array: 4 servers per rack under 1 Gbps ToR switches joined
	// by one array switch (the paper's Figure 1, in miniature).
	cfg := diablo.DefaultClusterConfig(diablo.TopologyParams{
		ServersPerRack: 4,
		RacksPerArray:  2,
		Arrays:         1,
	})
	cluster, err := diablo.NewCluster(cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Shutdown()

	// Node 0 runs a UDP echo server and a TCP sink; node 5 (other rack)
	// exercises both. Application code is ordinary Go making *simulated*
	// syscalls: every instruction, packet and interrupt is accounted for.
	cluster.Machine(0).Spawn("udp-echo", func(t *diablo.Thread) {
		sock, err := t.UDPSocket(9000)
		if err != nil {
			return
		}
		for {
			from, n, msg, err := sock.RecvFrom(t)
			if err != nil {
				return
			}
			t.Compute(2000) // pretend to think about it
			_ = sock.SendTo(t, from, n, msg)
		}
	})
	cluster.Machine(0).Spawn("tcp-sink", func(t *diablo.Thread) {
		lis, err := t.Listen(80, 8)
		if err != nil {
			return
		}
		for {
			conn, err := lis.Accept(t, true)
			if err != nil {
				return
			}
			total := 0
			for {
				n, _, err := conn.Recv(t, 1<<20)
				if err != nil || n == 0 {
					break
				}
				total += n
			}
			fmt.Printf("[%v] tcp-sink: connection done, %d bytes\n", t.Now(), total)
			conn.Close(t)
		}
	})

	cluster.Machine(5).Spawn("client", func(t *diablo.Thread) {
		// UDP round trips.
		sock, err := t.UDPSocket(0)
		if err != nil {
			return
		}
		for i := 0; i < 3; i++ {
			start := t.Now()
			_ = sock.SendTo(t, diablo.Addr{Node: 0, Port: 9000}, 200, diablo.Msg{Kind: 1, A: uint64(i)})
			_, _, _, err := sock.RecvFrom(t)
			if err != nil {
				return
			}
			fmt.Printf("[%v] udp ping %d: rtt=%v\n", t.Now(), i, t.Now().Sub(start))
		}

		// A 1 MB TCP transfer across the array switch.
		conn, err := t.Connect(diablo.Addr{Node: 0, Port: 80})
		if err != nil {
			return
		}
		start := t.Now()
		const total = 1 << 20
		if err := conn.Send(t, total, diablo.Msg{Kind: 1}); err != nil {
			return
		}
		conn.Close(t)
		elapsed := t.Now().Sub(start)
		fmt.Printf("[%v] tcp: handed %d bytes to the stack in %v (%.1f Mbps)\n",
			t.Now(), total, elapsed, float64(total)*8/elapsed.Seconds()/1e6)
	})

	cluster.RunUntil(2 * diablo.Second)

	// Everything is instrumented: links, switches, NICs, CPUs.
	sw := cluster.Tors[0]
	fmt.Printf("\ntor-0: forwarded %d packets (%d KB), dropped %d, peak buffer %d B\n",
		sw.Stats.Forwarded.Packets, sw.Stats.Forwarded.Bytes/1024,
		sw.Stats.Dropped.Packets, sw.Stats.PeakOccupied)
	m := cluster.Machine(0)
	fmt.Printf("node 0: %d interrupts, %d syscalls, TCP stats %+v\n",
		m.NIC().Stats.RxIRQs, m.Stats.Syscalls, m.TCPStats())
}
