package main

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"diablo"
	"diablo/internal/packet"
)

func TestDropLogFormat(t *testing.T) {
	pkt := &packet.Packet{
		Src:          packet.Addr{Node: 6, Port: 5001},
		Dst:          packet.Addr{Node: 0, Port: 32773},
		Proto:        packet.ProtoTCP,
		PayloadBytes: 1460,
	}
	pkt.TCP.Flags = packet.FlagACK
	pkt.TCP.Seq = 809793
	pkt.TCP.Ack = 257
	got := dropLine(diablo.Time(3185*diablo.Millisecond), "tor-0/in6", pkt)
	want := "3.185s       tor-0/in6  drop     n6:5001>n0:32773 tcp[A seq=809793 ack=257] 1460B"
	if got != want {
		t.Errorf("dropLine:\n got %q\nwant %q", got, want)
	}
}

func TestDropLogRing(t *testing.T) {
	l := newDropLog(4)
	for i := 0; i < 3; i++ {
		l.add(fmt.Sprint(i))
	}
	if got := l.String(); got != "0\n1\n2\n" || l.older != 0 {
		t.Fatalf("before wrap: %q, %d older", got, l.older)
	}
	for i := 3; i < 10; i++ {
		l.add(fmt.Sprint(i))
	}
	if got := l.String(); got != "6\n7\n8\n9\n" {
		t.Errorf("ring keeps %q, want the last four in order", got)
	}
	if l.older != 6 || len(l.lines) != 4 {
		t.Errorf("older = %d, kept = %d; want 6 and 4", l.older, len(l.lines))
	}
}

func TestSwitchFlagsConflict(t *testing.T) {
	base := runFlags{senders: 2, iterations: 1, ghz: 4, minRTOms: 200, seed: 1}
	for _, c := range []struct {
		tenG, shared bool
		want         diablo.SwitchParams
	}{
		{false, false, diablo.DefaultIncast(2).Switch},
		{true, false, diablo.TenGigLowLatency("tor", 0)},
		{false, true, diablo.SharedBufferCommodity("tor", 0)},
	} {
		f := base
		f.tenG, f.shared = c.tenG, c.shared
		cfg, err := incastConfig(f)
		if err != nil || !reflect.DeepEqual(cfg.Switch, c.want) {
			t.Errorf("-10g=%v -shared=%v: switch %+v, err %v; want %+v", c.tenG, c.shared, cfg.Switch, err, c.want)
		}
	}
	f := base
	f.tenG, f.shared = true, true
	_, err := incastConfig(f)
	if err == nil || !strings.Contains(err.Error(), "-10g") || !strings.Contains(err.Error(), "-shared") {
		t.Fatalf("-10g -shared: err = %v, want an error naming both flags", err)
	}
}

func TestParseFlags(t *testing.T) {
	f, err := parseFlags([]string{"-senders", "2", "-iterations", "1", "-epoll", "-trace-out", "t.json"})
	if err != nil || f.senders != 2 || f.iterations != 1 || !f.epoll || f.traceOut != "t.json" || f.minRTOms != 200 {
		t.Fatalf("parseFlags = %+v, %v", f, err)
	}
	// A leftover argument is an error naming the first one, never silently
	// ignored.
	_, err = parseFlags([]string{"-senders", "2", "-iterations", "1", "stray", "more"})
	if err == nil || !strings.Contains(err.Error(), `"stray"`) {
		t.Fatalf("stray argument: err = %v, want one naming \"stray\"", err)
	}
}
