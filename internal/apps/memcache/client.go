package memcache

import (
	"diablo/internal/kernel"
	"diablo/internal/packet"
	"diablo/internal/sim"
	"diablo/internal/workload"
)

// Proto selects the client transport (§4.2 compares both at scale).
type Proto uint8

// Transports.
const (
	UDP Proto = iota
	TCP
)

func (p Proto) String() string {
	if p == UDP {
		return "udp"
	}
	return "tcp"
}

// Sample is one completed request observation.
type Sample struct {
	Server  packet.NodeID
	Op      workload.Op
	Latency sim.Duration
	Retried bool
}

// ClientParams configures one closed-loop client thread.
type ClientParams struct {
	// Servers are the memcached instances to load (requests pick one
	// uniformly at random, as in §4.2).
	Servers []packet.Addr
	// Proto selects UDP or TCP.
	Proto Proto
	// Requests is the total request count (paper: 30K per client).
	Requests int
	// Workload drives key/value/op/think-time generation.
	Workload workload.ETCParams
	// PerRequestInstr is the client-side request construction cost.
	PerRequestInstr int64
	// UDPTimeout is the retry timeout for lost datagrams; Retries bounds
	// attempts per request.
	UDPTimeout sim.Duration
	Retries    int
	// StartSpread staggers client start times uniformly over this window,
	// as real fleet deployments are never phase-locked; without it every
	// client's initial-window burst collides at t=0.
	StartSpread sim.Duration
	// ChurnEvery closes and reopens TCP connections every N requests
	// (0 = persistent connections). Connection churn is what makes the
	// accept4 difference between memcached versions visible (§4.2).
	ChurnEvery int
	// OnSample is invoked for every completed request.
	OnSample func(Sample)
	// OnDone is invoked after the last request completes.
	OnDone func()
}

// DefaultClient returns §4.2-style client parameters.
func DefaultClient(servers []packet.Addr, requests int) ClientParams {
	return ClientParams{
		Servers:         servers,
		Proto:           UDP,
		Requests:        requests,
		Workload:        workload.ETC(),
		PerRequestInstr: 5_000,
		UDPTimeout:      250 * sim.Millisecond,
		Retries:         3,
		StartSpread:     200 * sim.Millisecond,
	}
}

// InstallClient starts the client thread on m.
func InstallClient(m *kernel.Machine, p ClientParams) {
	c := &client{p: p}
	if p.Proto == TCP {
		c.conns, c.reqsOnConn = make([]*kernel.TCPSocket, len(p.Servers)), make([]int, len(p.Servers))
	}
	if p.Proto == UDP {
		m.Start("mc-client-udp", c)
	} else {
		m.Start("mc-client-tcp", c)
	}
}

// client is the closed-loop client thread, a program (kernel.Program): each
// Next runs from one call's result to the next call. Over UDP it retries a
// request after UDPTimeout, up to Retries times; over TCP it keeps one
// connection per server, cycled every ChurnEvery requests when set.
type client struct {
	p      ClientParams
	pc     int
	gen    *workload.Generator
	rng    *sim.Rand
	i      int    // requests done
	seq    uint64 // of the request in flight
	si     int    // the server's ordinal in p.Servers
	server packet.Addr
	req    Request
	wire   int // the request's wire bytes
	start  sim.Time

	sock     *kernel.UDPSocket
	attempt  int // UDP attempts made for the request in flight
	deadline sim.Time
	// TCP: one connection per server, and requests sent on it, by ordinal.
	conns      []*kernel.TCPSocket
	reqsOnConn []int
	conn       *kernel.TCPSocket
	got        bool
}

// The client's program counter.
const (
	cStart   = iota // create the generator (UDP: and the socket)
	cSpread         // wait for the client's start
	cThink          // think before the next request
	cPick           // pick a server (TCP: connect if there is no connection)
	cBuild          // build the request, charge its cost
	cSend           // UDP: send the next attempt, or give up; TCP: send
	cUDPSent        // the attempt's deadline runs from here
	cUDPRecv        // wait for the response
	cUDPGot         // a datagram, or the timeout
	cTCPSent        // read the response
	cTCPGot         // a read returned
	cClose          // TCP: close the connections left; then end
)

func (c *client) Next(t *kernel.Thread, res *kernel.Result) bool {
	p, si, udp := c.p, c.si, c.p.Proto == UDP
	switch c.pc {
	case cStart:
		gen, err := workload.NewGenerator(p.Workload, t.Rand().Fork("mc-client"))
		if c.gen = gen; err != nil {
			return false
		}
		if udp {
			t.UDPSocket(0)
		}
	case cSpread:
		if c.sock = res.UDP; res.Err() != nil {
			return false
		}
		c.rng = t.Rand().Fork("mc-pick")
		if p.StartSpread > 0 {
			t.Sleep(sim.Duration(c.rng.Intn(int(p.StartSpread))))
		}
	case cThink:
		if c.i >= p.Requests {
			c.i, c.pc = 0, cClose
			return true
		}
		if think := c.gen.Think(); think > 0 {
			t.Sleep(think)
		}
	case cPick:
		c.si = c.rng.Intn(len(p.Servers))
		c.server = p.Servers[c.si]
		if !udp {
			if c.conn = c.conns[c.si]; c.conn == nil {
				t.Connect(c.server)
			}
		}
	case cBuild:
		if !udp && c.conn == nil {
			if res.Err() != nil {
				return c.completed(t, false)
			}
			c.conn = res.TCP
			c.conns[si], c.reqsOnConn[si] = c.conn, 0
		}
		r := c.gen.Next()
		c.seq++
		c.req = Request{Op: r.Op, Key: r.Key, ValueBytes: r.ValueBytes, Seq: c.seq}
		c.wire = c.req.wireBytes(r.KeyBytes)
		t.Compute(p.PerRequestInstr)
	case cSend:
		if c.attempt == 0 {
			c.start = t.Now()
		}
		if !udp {
			c.conn.Send(t, c.wire, c.req.msg())
			c.pc = cTCPSent
			return true
		}
		if c.attempt > p.Retries || c.sock.SendTo(t, c.server, c.wire, c.req.msg()) != nil {
			return c.completed(t, false)
		}
		c.attempt++
	case cUDPSent:
		c.deadline = t.Now().Add(p.UDPTimeout)
	case cUDPRecv:
		remain := c.deadline.Sub(t.Now())
		if remain <= 0 {
			c.pc = cSend // timeout: retry
			return true
		}
		c.sock.RecvFromTimeout(t, remain)
	case cUDPGot:
		resp, isResp := responseOf(res.Msg())
		switch {
		case res.Err() != nil:
			c.pc = cSend // timeout: retry
		case !isResp || resp.Seq != c.seq:
			c.pc = cUDPRecv // stale response from an earlier retry
		default:
			return c.completed(t, true)
		}
		return true
	case cTCPSent:
		if res.Err() != nil {
			c.conns[si] = nil
			return c.completed(t, false)
		}
		c.got = false
		c.conn.Recv(t, 1<<20)
	case cTCPGot:
		if res.Err() != nil || (res.N == 0 && len(res.Msgs()) == 0) {
			c.conns[si] = nil
		} else {
			for _, m := range res.Msgs() {
				if resp, ok := responseOf(m); ok && resp.Seq == c.seq {
					c.got = true
				}
			}
			if !c.got {
				c.conn.Recv(t, 1<<20)
				return true
			}
		}
		c.completed(t, c.got)
		// Connection churn: periodically cycle the connection so the accept
		// path is exercised at a realistic rate.
		if p.ChurnEvery > 0 {
			if c.reqsOnConn[si]++; c.reqsOnConn[si] >= p.ChurnEvery {
				c.conn.Close(t)
				c.conns[si], c.reqsOnConn[si] = nil, 0
			}
		}
		return true
	case cClose:
		// Close in server order: each Close advances simulated time.
		for ; c.i < len(c.conns); c.i++ {
			if conn := c.conns[c.i]; conn != nil {
				conn.Close(t)
				c.conns[c.i] = nil
				return true
			}
		}
		if p.OnDone != nil {
			p.OnDone()
		}
		return false
	}
	c.pc++
	return true
}

// completed ends the request in flight, reporting it if it got its response,
// and moves on to the next.
func (c *client) completed(t *kernel.Thread, ok bool) bool {
	if ok && c.p.OnSample != nil {
		c.p.OnSample(Sample{Server: c.server.Node, Op: c.req.Op, Latency: t.Now().Sub(c.start), Retried: c.attempt > 1})
	}
	c.i, c.attempt, c.pc = c.i+1, 0, cThink
	return true
}
