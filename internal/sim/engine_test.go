package sim

import (
	"sort"
	"testing"
	"testing/quick"
)

func TestTimeArithmetic(t *testing.T) {
	t0 := Time(0)
	t1 := t0.Add(5 * Microsecond)
	if t1 != Time(5_000_000) {
		t.Fatalf("5us = %d ps, want 5000000", int64(t1))
	}
	if d := t1.Sub(t0); d != 5*Microsecond {
		t.Fatalf("Sub = %v", d)
	}
	if s := (1500 * Nanosecond).String(); s != "1.5us" {
		t.Fatalf("String = %q", s)
	}
	if s := (250 * Picosecond).String(); s != "250ps" {
		t.Fatalf("String = %q", s)
	}
	if s := Duration(0).String(); s != "0s" {
		t.Fatalf("String = %q", s)
	}
}

func TestBitTime(t *testing.T) {
	if bt := BitTime(1_000_000_000); bt != 1000*Picosecond {
		t.Fatalf("1Gbps bit time = %v", bt)
	}
	if bt := BitTime(10_000_000_000); bt != 100*Picosecond {
		t.Fatalf("10Gbps bit time = %v", bt)
	}
	// 1500B at 1 Gbps = 12 us.
	if tt := TransmitTime(1500, 1_000_000_000); tt != 12*Microsecond {
		t.Fatalf("transmit time = %v", tt)
	}
}

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var got []int
	e.At(30*Time(Nanosecond), func() { got = append(got, 3) })
	e.At(10*Time(Nanosecond), func() { got = append(got, 1) })
	e.At(20*Time(Nanosecond), func() { got = append(got, 2) })
	e.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != 30*Time(Nanosecond) {
		t.Fatalf("now = %v", e.Now())
	}
}

func TestEngineFIFOAtSameTime(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		e.At(Time(Microsecond), func() { got = append(got, i) })
	}
	e.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-time events not FIFO: %v", got[:i+1])
		}
	}
}

func TestEngineCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	id := e.After(Microsecond, func() { fired = true })
	e.Cancel(id)
	e.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
	// Cancelling twice or after the fact must be harmless.
	e.Cancel(id)
	e.Cancel(EventID{})
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine()
	var fired []int
	e.At(Time(1*Microsecond), func() { fired = append(fired, 1) })
	e.At(Time(3*Microsecond), func() { fired = append(fired, 3) })
	e.RunUntil(Time(2 * Microsecond))
	if len(fired) != 1 || fired[0] != 1 {
		t.Fatalf("fired = %v", fired)
	}
	if e.Now() != Time(2*Microsecond) {
		t.Fatalf("now = %v", e.Now())
	}
	e.RunUntil(Time(10 * Microsecond))
	if len(fired) != 2 {
		t.Fatalf("fired = %v", fired)
	}
	if e.Now() != Time(10*Microsecond) {
		t.Fatalf("now after drain = %v", e.Now())
	}
}

func TestEngineRecursiveScheduling(t *testing.T) {
	e := NewEngine()
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < 10 {
			e.After(Microsecond, tick)
		}
	}
	e.After(0, tick)
	e.Run()
	if count != 10 {
		t.Fatalf("count = %d", count)
	}
	if e.Now() != Time(9*Microsecond) {
		t.Fatalf("now = %v", e.Now())
	}
}

func TestEngineHalt(t *testing.T) {
	e := NewEngine()
	n := 0
	for i := 0; i < 10; i++ {
		e.At(Time(i)*Time(Microsecond), func() {
			n++
			if n == 5 {
				e.Halt()
			}
		})
	}
	e.Run()
	if n != 5 {
		t.Fatalf("halted after %d events", n)
	}
	e.Run() // resumes
	if n != 10 {
		t.Fatalf("resume ran %d events", n)
	}
}

func TestEnginePastSchedulingPanics(t *testing.T) {
	e := NewEngine()
	e.At(Time(Microsecond), func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(Time(0), func() {})
	})
	e.Run()
}

// Property: for any batch of events with arbitrary times, the engine
// dispatches them in sorted (time, insertion) order.
func TestEngineHeapProperty(t *testing.T) {
	f := func(times []uint32) bool {
		e := NewEngine()
		type rec struct {
			at  Time
			idx int
		}
		var got []rec
		for i, tm := range times {
			at := Time(tm)
			i := i
			e.At(at, func() { got = append(got, rec{at, i}) })
		}
		e.Run()
		if len(got) != len(times) {
			return false
		}
		want := make([]rec, len(got))
		copy(want, got)
		sort.SliceStable(want, func(a, b int) bool {
			if want[a].at != want[b].at {
				return want[a].at < want[b].at
			}
			return want[a].idx < want[b].idx
		})
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: interleaved schedule/cancel/step sequences never dispatch a
// cancelled event and never dispatch out of time order.
func TestEngineCancelProperty(t *testing.T) {
	rng := NewRand(42)
	for iter := 0; iter < 100; iter++ {
		e := NewEngine()
		var ids []EventID
		var dispatched []Time
		for i := 0; i < 200; i++ {
			at := Time(rng.Intn(1000)) * Time(Nanosecond)
			id := e.At(at, func() { dispatched = append(dispatched, e.Now()) })
			ids = append(ids, id)
		}
		// Cancel a random half.
		live := len(ids)
		for _, id := range ids {
			if rng.Intn(2) == 0 {
				e.Cancel(id)
				live--
			}
		}
		e.Run()
		if len(dispatched) != live {
			t.Fatalf("dispatched %d events, want %d", len(dispatched), live)
		}
		for i := 1; i < len(dispatched); i++ {
			if dispatched[i] < dispatched[i-1] {
				t.Fatal("out-of-order dispatch")
			}
		}
	}
}

func TestRandDeterminism(t *testing.T) {
	a, b := NewRand(7), NewRand(7)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same-seed streams diverged")
		}
	}
	c := NewRand(8)
	same := true
	for i := 0; i < 10; i++ {
		if a.Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestDeriveSeedStable(t *testing.T) {
	// Seeds derived from labels must be stable across calls and distinct
	// across labels (with overwhelming probability).
	s1 := DeriveSeed(1, "node-0")
	s2 := DeriveSeed(1, "node-0")
	s3 := DeriveSeed(1, "node-1")
	if s1 != s2 {
		t.Fatal("DeriveSeed not stable")
	}
	if s1 == s3 {
		t.Fatal("DeriveSeed collision across labels")
	}
}

func TestRandIntnBounds(t *testing.T) {
	r := NewRand(3)
	counts := make([]int, 10)
	for i := 0; i < 100000; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn out of range: %d", v)
		}
		counts[v]++
	}
	for v, c := range counts {
		if c < 8000 || c > 12000 {
			t.Fatalf("Intn heavily skewed: bucket %d has %d/100000", v, c)
		}
	}
}

func TestRandFloat64Range(t *testing.T) {
	r := NewRand(9)
	if err := quick.Check(func(_ int) bool {
		f := r.Float64()
		return f >= 0 && f < 1
	}, &quick.Config{MaxCount: 10000}); err != nil {
		t.Fatal(err)
	}
}

func TestRandExpMean(t *testing.T) {
	r := NewRand(11)
	const n = 200000
	mean := 100 * Microsecond
	var sum float64
	for i := 0; i < n; i++ {
		d := r.Exp(mean)
		if d < 0 {
			t.Fatal("negative exponential sample")
		}
		sum += float64(d)
	}
	got := sum / n
	if got < 0.97*float64(mean) || got > 1.03*float64(mean) {
		t.Fatalf("exp mean = %v, want ~%v", Duration(got), mean)
	}
}

func TestRandParetoTail(t *testing.T) {
	r := NewRand(13)
	// With xi>0 the distribution is heavy-tailed; the sample max over many
	// draws should exceed the mean by a large factor.
	var max, sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		v := r.Pareto(0, 100, 0.5)
		if v < 0 {
			t.Fatal("negative pareto sample")
		}
		sum += v
		if v > max {
			max = v
		}
	}
	mean := sum / n
	if max < 10*mean {
		t.Fatalf("pareto tail too light: max=%v mean=%v", max, mean)
	}
}

func TestMul64(t *testing.T) {
	cases := []struct{ a, b, hi, lo uint64 }{
		{0, 0, 0, 0},
		{1, 1, 0, 1},
		{1 << 32, 1 << 32, 1, 0},
		{^uint64(0), ^uint64(0), ^uint64(0) - 1, 1},
		{^uint64(0), 2, 1, ^uint64(0) - 1},
	}
	for _, c := range cases {
		hi, lo := mul64(c.a, c.b)
		if hi != c.hi || lo != c.lo {
			t.Fatalf("mul64(%d,%d) = (%d,%d), want (%d,%d)", c.a, c.b, hi, lo, c.hi, c.lo)
		}
	}
}

func BenchmarkEngineScheduleDispatch(b *testing.B) {
	e := NewEngine()
	b.ReportAllocs()
	var tick func()
	n := 0
	tick = func() {
		n++
		if n < b.N {
			e.After(Nanosecond, tick)
		}
	}
	e.After(0, tick)
	e.Run()
}

func BenchmarkEngineHeap1k(b *testing.B) {
	// Heap behaviour with 1000 outstanding events, steady state.
	e := NewEngine()
	r := NewRand(1)
	var reschedule func()
	count := 0
	reschedule = func() {
		count++
		if count < b.N {
			e.After(Duration(r.Intn(1000))*Nanosecond, reschedule)
		}
	}
	for i := 0; i < 1000 && i < b.N; i++ {
		e.After(Duration(r.Intn(1000))*Nanosecond, reschedule)
	}
	b.ResetTimer()
	e.Run()
}
