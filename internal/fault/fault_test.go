package fault

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"diablo/internal/link"
	"diablo/internal/packet"
	"diablo/internal/sim"
	"diablo/internal/vswitch"
)

func TestActionValidate(t *testing.T) {
	good := NewPlan(1).
		FlapRackUplink(0, sim.Time(sim.Millisecond), 200*sim.Microsecond).
		DegradeEdge(3, Up, 0, sim.Millisecond, 0.25, 10*sim.Microsecond).
		FailSwitch(Array, 0, 0, sim.Millisecond).
		DegradePort(ToR, 1, 2, 0, sim.Millisecond, 0.1, 0.05).
		StallNIC(7, 0, sim.Millisecond).
		StraggleNode(7, 0, sim.Millisecond, 4)
	if err := good.Validate(); err != nil {
		t.Fatalf("valid plan rejected: %v", err)
	}

	bad := []Action{
		{Kind: LinkFlap, Target: Target{Node: -1, Rack: -1}},
		{Kind: LinkDegrade, Target: Target{Node: 0, Rack: -1}, Loss: 1.5},
		{Kind: LinkDegrade, Target: Target{Node: 0, Rack: -1}},             // degrades nothing
		{Kind: LinkDegrade, Target: Target{Node: 0, Rack: -1}, Loss: -0.1}, // negative loss
		{Kind: PortDegrade, Target: Target{Index: 0, Port: 0}},
		{Kind: Straggle, Target: Target{Node: 1}, Slowdown: 0.5},
		{Kind: NICStall, Target: Target{Node: -1}},
		{At: -1, Kind: NICStall, Target: Target{Node: 0}},
		{Dur: -1, Kind: NICStall, Target: Target{Node: 0}},
		{Kind: LinkDegrade, Target: Target{Node: 0, Rack: -1}, Loss: 0.1, ExtraLatency: -1},
	}
	for i, a := range bad {
		if err := a.Validate(); err == nil {
			t.Errorf("bad action %d (%s) accepted", i, a.Label())
		}
	}
}

func TestLabelsAreStable(t *testing.T) {
	a := Action{Kind: LinkDegrade, Target: Target{Rack: 3, Node: -1, Dir: Both}}
	if got, want := a.Label(), "linkdegrade/uplink-rack-3-both"; got != want {
		t.Fatalf("label = %q, want %q", got, want)
	}
	b := Action{Kind: PortDegrade, Target: Target{Level: Array, Index: 1, Port: 4}}
	if got, want := b.Label(), "portdegrade/array-1-port-4"; got != want {
		t.Fatalf("label = %q, want %q", got, want)
	}
}

func TestParseSpec(t *testing.T) {
	spec := "tordegrade rack=0 at=200ms dur=300ms loss=0.3 lat=10us; " +
		"straggle node=7 at=0 dur=1s factor=4; " +
		"switchfail level=array index=1 at=1ms dur=2ms; " +
		"portdegrade level=tor index=2 port=3 at=0 dur=1ms drop=0.1 corrupt=0.02; " +
		"nicstall node=9 at=5ms dur=100us; " +
		"edgeflap node=4 dir=down at=1ms dur=1ms"
	p, err := ParseSpec(42, spec)
	if err != nil {
		t.Fatal(err)
	}
	if p.Seed != 42 {
		t.Fatalf("seed = %d", p.Seed)
	}
	if len(p.Actions) != 6 {
		t.Fatalf("parsed %d actions, want 6", len(p.Actions))
	}
	a := p.Actions[0]
	if a.Kind != LinkDegrade || a.Target.Rack != 0 || a.Loss != 0.3 ||
		a.At != sim.Time(200*sim.Millisecond) || a.Dur != 300*sim.Millisecond ||
		a.ExtraLatency != 10*sim.Microsecond {
		t.Fatalf("tordegrade parsed as %+v", a)
	}
	if s := p.Actions[1]; s.Kind != Straggle || s.Target.Node != 7 || s.Slowdown != 4 {
		t.Fatalf("straggle parsed as %+v", s)
	}
	if f := p.Actions[2]; f.Kind != SwitchOutage || f.Target.Level != Array || f.Target.Index != 1 {
		t.Fatalf("switchfail parsed as %+v", f)
	}
	if e := p.Actions[5]; e.Kind != LinkFlap || e.Target.Node != 4 || e.Target.Dir != Down {
		t.Fatalf("edgeflap parsed as %+v", e)
	}
}

func TestParseSpecRejects(t *testing.T) {
	bad := []string{
		"torflap rack=0 at=1ms",                       // missing dur
		"torflap rack=0 at=1ms dur=1ms loss=0.5",      // unknown field for kind
		"tordegrade rack=0 at=1ms dur=1ms loss=1.5",   // invalid probability
		"warp node=0 at=1ms dur=1ms",                  // unknown kind
		"torflap rack=0 at=1ms dur=1ms at=2ms",        // duplicate field
		"straggle node=1 at=0 dur=1ms factor=0.2",     // slowdown < 1
		"nicstall node at=0 dur=1ms",                  // not key=value
		"tordegrade rack=0 at=bogus dur=1ms loss=0.1", // bad duration
	}
	for _, spec := range bad {
		if _, err := ParseSpec(1, spec); err == nil {
			t.Errorf("spec %q accepted", spec)
		}
	}
}

func TestParseSpecEmpty(t *testing.T) {
	p, err := ParseSpec(1, "  ;  ")
	if err != nil {
		t.Fatal(err)
	}
	if !p.Empty() {
		t.Fatalf("blank spec produced %d actions", len(p.Actions))
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := GenConfig{
		Seed: 7, Horizon: 10 * sim.Millisecond, MeanDur: sim.Millisecond,
		Events: 20, Racks: 4, Nodes: 64,
	}
	a, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := Generate(cfg)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same config produced different plans")
	}
	if len(a.Actions) != cfg.Events {
		t.Fatalf("generated %d actions, want %d", len(a.Actions), cfg.Events)
	}
	if err := a.Validate(); err != nil {
		t.Fatalf("generated plan invalid: %v", err)
	}
	cfg.Seed = 8
	c, _ := Generate(cfg)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical plans")
	}
}

// testBinder wires one link and one switch on a sequential engine.
type testBinder struct {
	eng  *sim.Engine
	l    *link.Link
	sw   *vswitch.Switch
	nic  *fakeStaller
	mach *fakeSlower
}

type fakeStaller struct{ stalled bool }

func (f *fakeStaller) SetStalled(s bool) { f.stalled = s }

type fakeSlower struct{ factor float64 }

func (f *fakeSlower) SetSlowdown(x float64) { f.factor = x }

func (b *testBinder) Links(tgt Target) ([]BoundLink, error) {
	if tgt.Rack != 0 && tgt.Node != 0 {
		return nil, fmt.Errorf("no such link target %+v", tgt)
	}
	return []BoundLink{{Link: b.l, Sched: b.eng, Label: "test-link"}}, nil
}

func (b *testBinder) Switch(level Level, index int) (BoundSwitch, error) {
	if index != 0 {
		return BoundSwitch{}, fmt.Errorf("no switch %v-%d", level, index)
	}
	return BoundSwitch{Switch: b.sw, Sched: b.eng, Label: "test-sw"}, nil
}

func (b *testBinder) NICOf(node int) (Staller, sim.Scheduler, error) {
	return b.nic, b.eng, nil
}

func (b *testBinder) MachineOf(node int) (Slower, sim.Scheduler, error) {
	return b.mach, b.eng, nil
}

func newTestBinder(t *testing.T) *testBinder {
	t.Helper()
	eng := sim.NewEngine()
	vswitch.RegisterEventHandlers(eng)
	sw, err := vswitch.New(eng, vswitch.Gigabit1GShallow("sw", 2))
	if err != nil {
		t.Fatal(err)
	}
	return &testBinder{
		eng:  eng,
		l:    link.New(eng, link.EndpointFunc(func(*packet.Packet) {}), 1_000_000_000, 0),
		sw:   sw,
		nic:  &fakeStaller{},
		mach: &fakeSlower{factor: 1},
	}
}

func TestInstallSchedulesEdges(t *testing.T) {
	b := newTestBinder(t)
	plan := NewPlan(3).
		FlapRackUplink(0, sim.Time(sim.Millisecond), sim.Millisecond).
		FailSwitch(ToR, 0, sim.Time(2*sim.Millisecond), sim.Millisecond).
		StallNIC(5, sim.Time(3*sim.Millisecond), sim.Millisecond).
		StraggleNode(5, sim.Time(4*sim.Millisecond), sim.Millisecond, 3)

	var edges []string
	notify := func(at sim.Time, label, detail string) {
		edges = append(edges, fmt.Sprintf("%v %s %s", at, label, detail))
	}
	if err := Install(plan, b, notify); err != nil {
		t.Fatal(err)
	}

	// Probe the state mid-window and after each window.
	type probe struct {
		at   sim.Time
		down bool
		fail bool
		stl  bool
		slow float64
	}
	var got []probe
	for _, at := range []sim.Time{
		sim.Time(1500 * sim.Microsecond), sim.Time(2500 * sim.Microsecond),
		sim.Time(3500 * sim.Microsecond), sim.Time(4500 * sim.Microsecond),
		sim.Time(6 * sim.Millisecond),
	} {
		at := at
		b.eng.At(at, func() {
			got = append(got, probe{at, b.l.Impaired(), b.sw.Failed(), b.nic.stalled, b.mach.factor})
		})
	}
	b.eng.Run()

	want := []probe{
		{sim.Time(1500 * sim.Microsecond), true, false, false, 1},
		{sim.Time(2500 * sim.Microsecond), false, true, false, 1},
		{sim.Time(3500 * sim.Microsecond), false, false, true, 1},
		{sim.Time(4500 * sim.Microsecond), false, false, false, 3},
		{sim.Time(6 * sim.Millisecond), false, false, false, 1},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("state probes:\n got %+v\nwant %+v", got, want)
	}
	if len(edges) != 8 {
		t.Fatalf("notified %d edges, want 8: %v", len(edges), edges)
	}
	if !strings.Contains(edges[0], "linkflap apply") || !strings.Contains(edges[1], "linkflap clear") {
		t.Fatalf("edge order: %v", edges)
	}
}

func TestInstallSeedsLossStream(t *testing.T) {
	b := newTestBinder(t)
	plan := NewPlan(11).DegradeRackUplink(0, 0, sim.Second, 0.5, 0)
	if err := Install(plan, b, nil); err != nil {
		t.Fatal(err)
	}
	// Send 200 frames through the lossy window; roughly half must vanish,
	// and the exact count must be reproducible (stream seeded from the plan).
	send := func(bd *testBinder, pl *Plan) uint64 {
		for i := 0; i < 200; i++ {
			at := sim.Time(i) * sim.Time(10*sim.Microsecond)
			bd.eng.At(at, func() {
				bd.l.Send(&packet.Packet{Proto: packet.ProtoUDP, PayloadBytes: 100})
			})
		}
		bd.eng.Run()
		return bd.l.FaultDrops.Packets
	}
	drops := send(b, plan)
	if drops < 60 || drops > 140 {
		t.Fatalf("dropped %d of 200 at loss=0.5", drops)
	}
	b2 := newTestBinder(t)
	plan2 := NewPlan(11).DegradeRackUplink(0, 0, sim.Second, 0.5, 0)
	if err := Install(plan2, b2, nil); err != nil {
		t.Fatal(err)
	}
	if again := send(b2, plan2); again != drops {
		t.Fatalf("replay dropped %d, first run dropped %d", again, drops)
	}
}

func TestInstallRejectsBadTarget(t *testing.T) {
	b := newTestBinder(t)
	plan := NewPlan(1).FailSwitch(ToR, 99, 0, sim.Millisecond)
	if err := Install(plan, b, nil); err == nil {
		t.Fatal("unresolvable switch accepted")
	}
	plan = NewPlan(1).DegradePort(ToR, 0, 99, 0, sim.Millisecond, 0.1, 0)
	if err := Install(plan, b, nil); err == nil {
		t.Fatal("out-of-range port accepted")
	}
}

func TestInstallEmptyPlanIsNoop(t *testing.T) {
	if err := Install(nil, nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := Install(NewPlan(1), nil, nil); err != nil {
		t.Fatal(err)
	}
}
