package topology

import "testing"

func TestShapeNameRoundTrip(t *testing.T) {
	for _, p := range []Params{
		{ServersPerRack: 31, RacksPerArray: 16, Arrays: 1},
		{ServersPerRack: 4, RacksPerArray: 2, Arrays: 3},
	} {
		got, err := ParseShape(p.ShapeName())
		if err != nil {
			t.Fatalf("%s: %v", p.ShapeName(), err)
		}
		if got != p {
			t.Errorf("round trip %s -> %+v", p.ShapeName(), got)
		}
	}
}

func TestParseShapeErrors(t *testing.T) {
	for _, s := range []string{"", "31x16", "31-16-1", "0x16x1", "31x0x1", "31x16x0", "axbxc",
		"31x16x4x2", "31x16x4junk", "31x16x4 ", " 31x16x4", "+31x16x4", "031x16x4"} {
		if _, err := ParseShape(s); err == nil {
			t.Errorf("ParseShape(%q) accepted", s)
		}
	}
}

func TestOversubscription(t *testing.T) {
	p := Params{ServersPerRack: 31, RacksPerArray: 16, Arrays: 1}
	if p.RackOversubscription() != 31 {
		t.Errorf("rack oversub = %d", p.RackOversubscription())
	}
	if p.ArrayOversubscription() != 16 {
		t.Errorf("array oversub = %d", p.ArrayOversubscription())
	}
	if p.ShapeName() != "31x16x1" {
		t.Errorf("shape name = %s", p.ShapeName())
	}
}

// FuzzParseShape: ParseShape never panics, and every shape it accepts is
// valid and names itself canonically.
func FuzzParseShape(f *testing.F) {
	for _, s := range []string{"31x16x1", "4x2x3", "31x16x4x2", "31x16x4junk", "+1x1x1", ""} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		p, err := ParseShape(s)
		if err != nil {
			return
		}
		if p.ShapeName() != s {
			t.Fatalf("ParseShape(%q) accepted a non-canonical shape (%s)", s, p.ShapeName())
		}
		if _, err := New(p); err != nil {
			t.Fatalf("ParseShape(%q) accepted invalid params: %v", s, err)
		}
	})
}
