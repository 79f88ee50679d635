package packet

import (
	"testing"
	"testing/quick"
	"unsafe"
)

func TestWireSizes(t *testing.T) {
	cases := []struct {
		proto   Proto
		payload int
		frame   int
		wire    int
	}{
		{ProtoUDP, 1472, 1518, 1538}, // full UDP datagram fills the MTU
		{ProtoTCP, MSS, 1518, 1538},  // full TCP segment fills the MTU
		{ProtoUDP, 1, 64, 84},        // minimum frame padding
		{ProtoTCP, 0, 64, 84},        // bare ACK
		{ProtoUDP, 100, 146, 166},
	}
	for _, c := range cases {
		p := &Packet{Proto: c.proto, PayloadBytes: c.payload}
		if got := p.FrameBytes(); got != c.frame {
			t.Errorf("%v/%dB frame = %d, want %d", c.proto, c.payload, got, c.frame)
		}
		if got := p.WireBytes(); got != c.wire {
			t.Errorf("%v/%dB wire = %d, want %d", c.proto, c.payload, got, c.wire)
		}
		if p.BufferBytes() != p.FrameBytes() {
			t.Errorf("buffer bytes must equal frame bytes")
		}
	}
}

// Property: wire size is always frame + 20 and at least 84; frame grows
// monotonically with payload.
func TestWireSizeProperties(t *testing.T) {
	f := func(payload uint16, tcp bool) bool {
		proto := ProtoUDP
		if tcp {
			proto = ProtoTCP
		}
		p := &Packet{Proto: proto, PayloadBytes: int(payload % 1473)}
		if p.WireBytes() != p.FrameBytes()+EthPreamble+EthIFG {
			return false
		}
		if p.WireBytes() < 84 {
			return false
		}
		bigger := &Packet{Proto: proto, PayloadBytes: p.PayloadBytes + 1}
		return bigger.FrameBytes() >= p.FrameBytes()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHeaderConstants(t *testing.T) {
	if MSS != 1460 {
		t.Fatalf("MSS = %d", MSS)
	}
	if MaxUDPPayload != 1472 {
		t.Fatalf("MaxUDPPayload = %d", MaxUDPPayload)
	}
	if EthOverhead != 38 {
		t.Fatalf("EthOverhead = %d", EthOverhead)
	}
}

func TestRouteConsumption(t *testing.T) {
	p := &Packet{Route: MakeRoute(3, 1, 0, 5, 9)}
	want := []int{3, 1, 0, 5, 9, -1, -1}
	for i, w := range want {
		if got := p.NextRoutePort(); got != w {
			t.Fatalf("hop %d = %d, want %d", i, got, w)
		}
	}
}

func TestRouteValueSemantics(t *testing.T) {
	r := MakeRoute(1, 2, 3)
	if r.Len() != 3 || r.At(0) != 1 || r.At(2) != 3 {
		t.Fatalf("route contents: %v", r)
	}
	if r != MakeRoute(1, 2, 3) {
		t.Fatal("identical routes must compare equal")
	}
	if r == MakeRoute(1, 2) {
		t.Fatal("routes of different depth must differ")
	}
	r.Append(4)
	if got := r.Ports(); len(got) != 4 || got[3] != 4 {
		t.Fatalf("after append: %v", got)
	}
	if r.String() != "[1 2 3 4]" {
		t.Fatalf("route string = %q", r.String())
	}

	defer func() {
		if recover() == nil {
			t.Fatal("over-deep route must panic")
		}
	}()
	MakeRoute(1, 2, 3, 4, 5, 6, 7, 8, 9)
}

func TestTCPFlagsString(t *testing.T) {
	cases := map[TCPFlags]string{
		FlagSYN:                     "S",
		FlagSYN | FlagACK:           "SA",
		FlagACK | FlagFIN:           "AF",
		FlagRST | FlagACK:           "AR",
		0:                           "-",
		FlagSYN | FlagACK | FlagFIN: "SAF",
	}
	for f, want := range cases {
		if got := f.String(); got != want {
			t.Errorf("flags %d = %q, want %q", f, got, want)
		}
	}
}

func TestStringers(t *testing.T) {
	a := Addr{Node: 7, Port: 80}
	if a.String() != "n7:80" {
		t.Fatalf("addr = %q", a.String())
	}
	if ProtoUDP.String() != "udp" || ProtoTCP.String() != "tcp" {
		t.Fatal("proto strings")
	}
	p := &Packet{Src: a, Dst: Addr{Node: 8, Port: 81}, Proto: ProtoTCP, PayloadBytes: 10}
	if p.String() == "" {
		t.Fatal("empty packet string")
	}
	u := &Packet{Src: a, Dst: Addr{Node: 8, Port: 81}, Proto: ProtoUDP, PayloadBytes: 10}
	if u.String() == "" {
		t.Fatal("empty packet string")
	}
}

// TestPacketSize pins the frame record's size on 64-bit hosts: transports
// share one inline Msg, and the only reference left is a TCP segment's list
// of several boundaries. A field that makes every packet larger shows here.
func TestPacketSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("sizes are pinned for 64-bit hosts")
	}
	if got := unsafe.Sizeof(Packet{}); got > 152 {
		t.Errorf("Packet is %d bytes, want at most 152", got)
	}
}
