package obs

import (
	"fmt"
	"strings"
	"testing"

	"diablo/internal/sim"
)

func TestRegistrySamplesOnSimTimeGrid(t *testing.T) {
	eng := sim.NewEngine()
	r := NewRegistry()
	count, v := 0.0, 0.0
	r.GaugeFunc(eng, "a/pull", func() float64 { return v })
	r.GaugeFunc(eng, "a/count", func() float64 { return count })
	r.Start()

	ms := sim.Time(sim.Millisecond)
	eng.At(ms/2, func() { count++; v = 3 })
	eng.At(3*ms/2, func() { count += 2 })
	eng.RunUntil(3 * ms)
	r.Stop()

	series := r.Series()
	if len(series) != 2 {
		t.Fatalf("want 2 series, got %d", len(series))
	}
	// Sorted by name, not by registration order.
	for i, name := range []string{"a/count", "a/pull"} {
		if series[i].Name != name {
			t.Fatalf("series[%d].Name=%q, want %q", i, series[i].Name, name)
		}
	}
	count0 := series[0]
	// Ticks at 0, 1, 2, 3 ms.
	if len(count0.Samples) != 4 {
		t.Fatalf("want 4 samples, got %d: %+v", len(count0.Samples), count0.Samples)
	}
	wantVal := []float64{0, 1, 3, 3}
	for i, s := range count0.Samples {
		if s.At != sim.Time(i)*ms || s.Value != wantVal[i] {
			t.Fatalf("sample %d = %+v, want at=%v value=%v", i, s, sim.Time(i)*ms, wantVal[i])
		}
	}
	if got := series[1].Samples[1].Value; got != 3 {
		t.Fatalf("pull gauge at 1ms = %v, want 3", got)
	}
}

func TestRegistryStopEndsTicks(t *testing.T) {
	eng := sim.NewEngine()
	r := NewRegistry()
	r.GaugeFunc(eng, "x", func() float64 { return 0 })
	r.Start()
	eng.RunUntil(sim.Time(3 * sim.Millisecond))
	r.Stop()
	// The already-scheduled tick fires as a no-op; no further samples.
	eng.RunUntil(sim.Time(10 * sim.Millisecond))
	if n := len(r.Series()[0].Samples); n != 4 {
		t.Fatalf("samples after Stop: %d, want 4 (ticks 0..3ms)", n)
	}
}

func TestRegistryDuplicateNamePanics(t *testing.T) {
	eng := sim.NewEngine()
	r := NewRegistry()
	r.GaugeFunc(eng, "dup", func() float64 { return 0 })
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate name did not panic")
		}
	}()
	r.GaugeFunc(eng, "dup", func() float64 { return 1 })
}

func TestRegistryRegisterAfterStartPanics(t *testing.T) {
	eng := sim.NewEngine()
	r := NewRegistry()
	r.Start()
	defer func() {
		if recover() == nil {
			t.Fatal("register after Start did not panic")
		}
	}()
	r.GaugeFunc(eng, "late", func() float64 { return 0 })
}

func TestEncodeTextAndHashStable(t *testing.T) {
	build := func() *Registry {
		eng := sim.NewEngine()
		r := NewRegistry()
		v := 0.0
		r.GaugeFunc(eng, "z/count", func() float64 { return v })
		r.GaugeFunc(eng, "a/gauge", func() float64 { return 0 })
		r.Start()
		eng.At(sim.Time(500*sim.Microsecond), func() { v += 1.5 })
		eng.RunUntil(sim.Time(2 * sim.Millisecond))
		r.Stop()
		return r
	}
	var b1, b2 strings.Builder
	r1, r2 := build(), build()
	if err := r1.EncodeText(&b1); err != nil {
		t.Fatal(err)
	}
	if err := r2.EncodeText(&b2); err != nil {
		t.Fatal(err)
	}
	if b1.String() != b2.String() {
		t.Fatalf("identical runs encode differently:\n%s\nvs\n%s", b1.String(), b2.String())
	}
	if r1.Hash() != r2.Hash() {
		t.Fatalf("hash differs: %s vs %s", r1.Hash(), r2.Hash())
	}
	if !strings.HasPrefix(r1.Hash(), "fnv64a:") {
		t.Fatalf("hash missing algorithm prefix: %s", r1.Hash())
	}
	// Name-sorted: a/gauge before z/count despite registration order.
	txt := b1.String()
	if strings.Index(txt, "series a/gauge") > strings.Index(txt, "series z/count") {
		t.Fatalf("series not name-sorted:\n%s", txt)
	}
	if !strings.Contains(txt, "1.5") {
		t.Fatalf("gauge value missing from encoding:\n%s", txt)
	}
}

// TestDefaultInterval: the registry ticks every SampleInterval and its
// text encoding (the input to Hash) names that interval in its header.
func TestDefaultInterval(t *testing.T) {
	eng := sim.NewEngine()
	r := NewRegistry()
	r.GaugeFunc(eng, "x", func() float64 { return 0 })
	r.Start()
	eng.RunUntil(sim.Time(2 * SampleInterval))
	r.Stop()
	for i, s := range r.Series()[0].Samples {
		if want := sim.Time(i) * sim.Time(SampleInterval); s.At != want {
			t.Fatalf("sample %d at %v, want %v", i, s.At, want)
		}
	}
	var b strings.Builder
	if err := r.EncodeText(&b); err != nil {
		t.Fatal(err)
	}
	header := fmt.Sprintf("# diablo stats series v1\n# interval_ps %d\n", int64(SampleInterval))
	if !strings.HasPrefix(b.String(), header) {
		t.Fatalf("encoding header:\n%s\nwant prefix:\n%s", b.String(), header)
	}
}
