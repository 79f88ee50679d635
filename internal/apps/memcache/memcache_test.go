package memcache

import (
	"testing"

	"diablo/internal/kernel"
	"diablo/internal/link"
	"diablo/internal/nic"
	"diablo/internal/packet"
	"diablo/internal/sim"
	"diablo/internal/topology"
	"diablo/internal/workload"
)

func TestVersions(t *testing.T) {
	old, new_ := V1415(), V1417()
	if old.Accept4 || !new_.Accept4 {
		t.Fatal("accept4 support inverted")
	}
	if new_.BaseInstr >= old.BaseInstr {
		t.Fatal("1.4.17 should be marginally leaner")
	}
	for _, name := range []string{"1.4.15", "1.4.17"} {
		if v, ok := VersionByName(name); !ok || v.Name != name {
			t.Fatalf("VersionByName(%q) failed", name)
		}
	}
	if _, ok := VersionByName("2.0"); ok {
		t.Fatal("unknown version resolved")
	}
}

func TestStore(t *testing.T) {
	s := NewStore()
	if _, ok := s.Get(5); ok {
		t.Fatal("empty store hit")
	}
	s.Set(5, 123)
	if n, ok := s.Get(5); !ok || n != 123 {
		t.Fatalf("get = %d,%v", n, ok)
	}
	s.Set(5, 456)
	if n, _ := s.Get(5); n != 456 {
		t.Fatal("overwrite failed")
	}
	if s.Len() != 1 {
		t.Fatalf("len = %d", s.Len())
	}
}

func TestPrewarmCoversKeyspace(t *testing.T) {
	p := workload.ETC()
	p.Keys = 500
	s := Prewarm(p)
	if s.Len() != 500 {
		t.Fatalf("prewarmed %d keys, want 500", s.Len())
	}
	for k := uint64(0); k < 500; k++ {
		n, ok := s.Get(k)
		if !ok || n < 1 || n > p.MaxValue {
			t.Fatalf("key %d: size %d ok=%v", k, n, ok)
		}
	}
}

func TestRequestWireBytes(t *testing.T) {
	get := Request{Op: workload.Get}
	if got := get.wireBytes(30); got != requestHeader+30 {
		t.Fatalf("get wire = %d", got)
	}
	set := Request{Op: workload.Set, ValueBytes: 1000}
	if got := set.wireBytes(30); got != requestHeader+30+1000 {
		t.Fatalf("set wire = %d", got)
	}
}

// rig wires a server machine and a client machine back-to-back.
type rig struct {
	eng            *sim.Engine
	server, client *kernel.Machine
}

func newRig(t *testing.T) *rig {
	t.Helper()
	eng := sim.NewEngine()
	kernel.RegisterEventHandlers(eng)
	topo, err := topology.SingleRack(2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := kernel.DefaultConfig()
	mk := func(node packet.NodeID) (*kernel.Machine, *link.Link) {
		wire := link.New(eng, nil, 1_000_000_000, 500*sim.Nanosecond)
		dev, err := nic.New(eng, cfg.NIC, wire)
		if err != nil {
			t.Fatal(err)
		}
		m, err := kernel.New(eng, node, cfg, topo, dev, 7)
		if err != nil {
			t.Fatal(err)
		}
		return m, wire
	}
	srv, wireS := mk(0)
	cli, wireC := mk(1)
	wireS.SetDst(cli.NIC())
	wireC.SetDst(srv.NIC())
	r := &rig{eng: eng, server: srv, client: cli}
	t.Cleanup(func() { srv.Shutdown(); cli.Shutdown() })
	return r
}

func runClient(t *testing.T, r *rig, proto Proto, requests, churn int, version Version) ([]Sample, *Server) {
	t.Helper()
	wl := workload.ETC()
	wl.Keys = 200
	wl.ThinkTime = 50 * sim.Microsecond
	store := Prewarm(wl)
	sp := DefaultServer(version, store)
	sp.Workers = 2
	srv := InstallServer(r.server, sp)

	var samples []Sample
	done := false
	cp := DefaultClient([]packet.Addr{{Node: 0, Port: sp.Port}}, requests)
	cp.Proto = proto
	cp.Workload = wl
	cp.ChurnEvery = churn
	cp.StartSpread = sim.Millisecond
	cp.OnSample = func(s Sample) { samples = append(samples, s) }
	cp.OnDone = func() { done = true; r.eng.Halt() }
	InstallClient(r.client, cp)

	r.eng.RunUntil(sim.Time(30 * sim.Second))
	if !done {
		t.Fatal("client never finished")
	}
	return samples, srv
}

func TestUDPServerClient(t *testing.T) {
	r := newRig(t)
	samples, srv := runClient(t, r, UDP, 100, 0, V1417())
	if len(samples) != 100 {
		t.Fatalf("samples = %d, want 100", len(samples))
	}
	if srv.Stats.UDPRequests != 100 {
		t.Fatalf("server saw %d UDP requests", srv.Stats.UDPRequests)
	}
	if srv.Stats.Misses != 0 {
		t.Fatalf("prewarmed store missed %d times", srv.Stats.Misses)
	}
	// GET:SET ratio carried through.
	if srv.Stats.Gets < srv.Stats.Sets*10 {
		t.Fatalf("op mix wrong: %d gets, %d sets", srv.Stats.Gets, srv.Stats.Sets)
	}
	for _, s := range samples {
		if s.Latency <= 0 || s.Latency > 10*sim.Millisecond {
			t.Fatalf("implausible latency %v", s.Latency)
		}
	}
}

func TestTCPServerClient(t *testing.T) {
	r := newRig(t)
	samples, srv := runClient(t, r, TCP, 80, 0, V1417())
	if len(samples) != 80 {
		t.Fatalf("samples = %d, want 80", len(samples))
	}
	if srv.Stats.TCPRequests != 80 {
		t.Fatalf("server saw %d TCP requests", srv.Stats.TCPRequests)
	}
	if srv.Stats.Accepts != 1 {
		t.Fatalf("persistent connection accepted %d times", srv.Stats.Accepts)
	}
}

func TestTCPChurnDrivesAccepts(t *testing.T) {
	r := newRig(t)
	_, srv := runClient(t, r, TCP, 80, 10, V1417())
	// 80 requests, reconnect every 10: 8 connections.
	if srv.Stats.Accepts != 8 {
		t.Fatalf("accepts = %d, want 8", srv.Stats.Accepts)
	}
}

func TestOldVersionCostsMoreSyscallsOnAccept(t *testing.T) {
	// The accept4 difference: same churny workload, the 1.4.15 server
	// executes more syscalls overall.
	syscalls := func(v Version) (uint64, uint64) {
		r := newRig(t)
		_, srv := runClient(t, r, TCP, 60, 5, v)
		return r.server.Stats.Syscalls, srv.Stats.Accepts
	}
	old, oldAccepts := syscalls(V1415())
	newer, newAccepts := syscalls(V1417())
	if oldAccepts != newAccepts {
		t.Fatalf("accept counts differ: %d vs %d", oldAccepts, newAccepts)
	}
	if old <= newer {
		t.Fatalf("1.4.15 syscalls (%d) should exceed 1.4.17 (%d)", old, newer)
	}
	// One extra syscall per accepted connection (a small slack absorbs
	// interleaving differences in epoll polling between the two runs).
	delta := old - newer
	if delta < oldAccepts || delta > oldAccepts+4 {
		t.Fatalf("syscall delta = %d, want ~%d (one per accept)", delta, oldAccepts)
	}
}

func TestMsgRoundTrip(t *testing.T) {
	req := Request{Op: workload.Set, Key: 1<<40 + 3, ValueBytes: 1 << 20, Seq: 7}
	if got, ok := requestOf(req.msg()); !ok || got != req {
		t.Fatalf("request %+v came back as %+v (ok=%v)", req, got, ok)
	}
	resp := Response{Seq: 7, Hit: true, ValueBytes: 4096}
	if got, ok := responseOf(resp.msg()); !ok || got != resp {
		t.Fatalf("response %+v came back as %+v (ok=%v)", resp, got, ok)
	}
	if _, ok := responseOf(req.msg()); ok {
		t.Fatal("a request decoded as a response")
	}
	if _, ok := requestOf(packet.Msg{}); ok {
		t.Fatal("the empty message decoded as a request")
	}
}

func TestSetsVisibleToGets(t *testing.T) {
	// A SET followed by a GET of the same key returns the new size: the
	// store is live, not just static.
	r := newRig(t)
	sp := DefaultServer(V1417(), NewStore()) // empty store: all gets miss
	srv := InstallServer(r.server, sp)
	pr := &probe{dst: packet.Addr{Node: 0, Port: sp.Port}, halt: r.eng.Halt, lockstep: true, script: []Request{
		{Op: workload.Get, Key: 3, Seq: 1},                  // miss
		{Op: workload.Set, Key: 3, ValueBytes: 400, Seq: 2}, // set
		{Op: workload.Get, Key: 3, Seq: 3},                  // hit
	}}
	r.client.Start("probe", pr)
	r.eng.RunUntil(sim.Time(5 * sim.Second))
	if len(pr.resps) != 3 {
		t.Fatalf("got %d responses, want 3", len(pr.resps))
	}
	missResp, hitResp := pr.resps[0], pr.resps[2]
	if missResp.Hit {
		t.Fatal("get before set hit")
	}
	if !hitResp.Hit || hitResp.ValueBytes != 400 {
		t.Fatalf("get after set: %+v", hitResp)
	}
	if srv.Stats.Misses != 1 {
		t.Fatalf("misses = %d", srv.Stats.Misses)
	}
}

// TestDuplicateServedAsSent: a request sent twice, whose duplicate reaches the
// server after the client has built its next request in the same variable, is
// served both times with its own key and size. A message that shared the
// client's storage would arrive as the next request.
func TestDuplicateServedAsSent(t *testing.T) {
	r := newRig(t)
	sp := DefaultServer(V1417(), NewStore())
	srv := InstallServer(r.server, sp)
	first := Request{Op: workload.Set, Key: 3, ValueBytes: 400, Seq: 1}
	pr := &probe{dst: packet.Addr{Node: 0, Port: sp.Port}, halt: r.eng.Halt, script: []Request{
		first, first, {Op: workload.Set, Key: 5, ValueBytes: 900, Seq: 2},
	}}
	r.client.Start("probe", pr)
	r.eng.RunUntil(sim.Time(5 * sim.Second))
	if len(pr.resps) != 3 {
		t.Fatalf("got %d responses, want 3", len(pr.resps))
	}
	seqs := map[uint64]int{}
	for _, resp := range pr.resps {
		seqs[resp.Seq]++
	}
	if seqs[1] != 2 || seqs[2] != 1 {
		t.Fatalf("responses %+v, want two for Seq 1 and one for Seq 2", pr.resps)
	}
	for key, want := range map[uint64]int{3: 400, 5: 900} {
		if n, ok := sp.Store.Get(key); !ok || n != want {
			t.Fatalf("key %d holds %d (present %v), want %d", key, n, ok, want)
		}
	}
	if srv.Stats.Sets != 3 {
		t.Fatalf("sets = %d, want 3", srv.Stats.Sets)
	}
}

// TestLateResponseDiscardedBySeq: against a server that answers each request
// only on its retry, and then answers the first attempt too, the late answer
// reaches the client while it waits on its next request. The client must
// discard it by Seq: every request completes on its own retry.
func TestLateResponseDiscardedBySeq(t *testing.T) {
	r := newRig(t)
	const requests, timeout = 5, sim.Millisecond
	st := &staller{}
	r.server.Start("staller", st)
	var samples []Sample
	cp := DefaultClient([]packet.Addr{{Node: 0, Port: 11211}}, requests)
	cp.UDPTimeout = timeout
	cp.StartSpread = 0
	cp.OnSample = func(s Sample) { samples = append(samples, s) }
	cp.OnDone = r.eng.Halt
	InstallClient(r.client, cp)
	r.eng.RunUntil(sim.Time(5 * sim.Second))
	if len(samples) != requests {
		t.Fatalf("samples = %d, want %d", len(samples), requests)
	}
	for i, s := range samples {
		if !s.Retried || s.Latency < timeout {
			t.Fatalf("request %d: %+v completed without its retry's answer", i, s)
		}
	}
	if st.answered != 2*requests {
		t.Fatalf("server answered %d times, want %d", st.answered, 2*requests)
	}
}

// staller is a UDP server that leaves the first attempt of each request
// unanswered until its retry arrives, then answers both, the retry first.
type staller struct {
	sock     *kernel.UDPSocket
	from     packet.Addr
	seq      uint64 // of the last request received
	late     int    // answers still to send for seq
	answered int
}

func (s *staller) Next(t *kernel.Thread, res *kernel.Result) bool {
	if s.sock == nil {
		if s.sock = res.UDP; s.sock == nil {
			t.UDPSocket(11211)
			return true
		}
	}
	if req, ok := requestOf(res.Msg()); ok {
		if req.Seq == s.seq {
			s.late = 2 // the retry: answer it, then the first attempt
		}
		s.from, s.seq = res.From, req.Seq
	}
	if s.late == 0 {
		s.sock.RecvFrom(t)
		return true
	}
	s.late--
	s.answered++
	_ = s.sock.SendTo(t, s.from, responseHeader, Response{Seq: s.seq, Hit: true}.msg())
	return true
}

// probe sends its script of requests over UDP, building each in the same
// variable, and keeps a response for each. In lockstep it waits for each
// response before building the next request; otherwise it sends the whole
// script back to back and then reads the responses.
type probe struct {
	dst      packet.Addr
	script   []Request
	lockstep bool
	resps    []Response
	halt     func()
	sock     *kernel.UDPSocket
	req      Request // the request being sent
	sent     int
}

func (p *probe) Next(t *kernel.Thread, res *kernel.Result) bool {
	if p.sock == nil {
		if p.sock = res.UDP; p.sock == nil {
			t.UDPSocket(0)
			return true
		}
	}
	if resp, ok := responseOf(res.Msg()); ok {
		p.resps = append(p.resps, resp)
	}
	switch {
	case p.sent < len(p.script) && (!p.lockstep || len(p.resps) == p.sent):
		p.req = p.script[p.sent]
		p.sent++
		_ = p.sock.SendTo(t, p.dst, p.req.wireBytes(16), p.req.msg())
	case len(p.resps) < len(p.script):
		p.sock.RecvFrom(t)
	default:
		p.halt()
		return false
	}
	return true
}
