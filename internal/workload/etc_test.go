package workload

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"diablo/internal/sim"
)

func gen(t *testing.T, seed uint64) *Generator {
	t.Helper()
	g, err := NewGenerator(ETC(), sim.NewRand(seed))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestKeySizeDistribution(t *testing.T) {
	g := gen(t, 1)
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		k := g.KeySize()
		if k < 1 || k > 250 {
			t.Fatalf("key size %d out of memcached bounds", k)
		}
		sum += float64(k)
	}
	mean := sum / n
	// GEV(30.75, 8.2, 0.079) has mean ~ µ + σ*0.577... ≈ 36; published ETC
	// mean key size is ~35-41 bytes.
	if mean < 30 || mean > 45 {
		t.Fatalf("mean key size = %.1f, want ~36", mean)
	}
}

func TestValueSizeDistribution(t *testing.T) {
	g := gen(t, 2)
	const n = 200000
	var vals []int
	var small int
	for i := 0; i < n; i++ {
		v := g.ValueSize()
		if v < 1 || v > ETC().MaxValue {
			t.Fatalf("value size %d out of bounds", v)
		}
		if v <= 2 {
			small++
		}
		vals = append(vals, v)
	}
	// The discrete small-value spike must be present (~7%+ of draws land
	// at <=2 B between the spike and the GP's own small values).
	if frac := float64(small) / n; frac < 0.05 || frac > 0.20 {
		t.Fatalf("small-value fraction = %.3f, want ~0.07-0.15", frac)
	}
	// Median must be a few hundred bytes (published ETC median ~330 B is
	// for a slightly different parameterization; GP(214.5, 0.348) median
	// = σ/k*(2^k - 1) ≈ 167 B).
	median := quickSelect(vals, n/2)
	if median < 80 || median > 500 {
		t.Fatalf("median value size = %d, want O(100)", median)
	}
	// Heavy tail: p999 must be much larger than the median.
	p999 := quickSelect(vals, n-n/1000)
	if p999 < 10*median {
		t.Fatalf("tail too light: p999=%d median=%d", p999, median)
	}
}

func quickSelect(xs []int, k int) int {
	s := append([]int(nil), xs...)
	lo, hi := 0, len(s)-1
	for {
		if lo == hi {
			return s[lo]
		}
		pivot := s[(lo+hi)/2]
		i, j := lo, hi
		for i <= j {
			for s[i] < pivot {
				i++
			}
			for s[j] > pivot {
				j--
			}
			if i <= j {
				s[i], s[j] = s[j], s[i]
				i++
				j--
			}
		}
		if k <= j {
			hi = j
		} else if k >= i {
			lo = i
		} else {
			return s[k]
		}
	}
}

func TestGetSetRatio(t *testing.T) {
	g := gen(t, 3)
	gets, sets := 0, 0
	for i := 0; i < 100000; i++ {
		if g.Next().Op == Get {
			gets++
		} else {
			sets++
		}
	}
	ratio := float64(gets) / float64(sets)
	if ratio < 25 || ratio > 36 {
		t.Fatalf("GET:SET = %.1f, want ~30", ratio)
	}
}

func TestZipfPopularity(t *testing.T) {
	g := gen(t, 4)
	counts := make(map[uint64]int)
	const n = 200000
	for i := 0; i < n; i++ {
		k := g.Key()
		if k >= uint64(ETC().Keys) {
			t.Fatalf("key %d out of space", k)
		}
		counts[k]++
	}
	// Rank-0 key must be far more popular than a mid-rank key.
	if counts[0] < 20*counts[5000] && counts[5000] > 0 {
		t.Fatalf("popularity not skewed: rank0=%d rank5000=%d", counts[0], counts[5000])
	}
	// But the tail must still be exercised.
	distinct := len(counts)
	if distinct < ETC().Keys/10 {
		t.Fatalf("only %d distinct keys drawn", distinct)
	}
}

func TestThinkTime(t *testing.T) {
	g := gen(t, 5)
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		d := g.Think()
		if d < 0 {
			t.Fatal("negative think time")
		}
		sum += float64(d)
	}
	mean := sim.Duration(sum / n)
	want := ETC().ThinkTime
	if math.Abs(float64(mean-want)) > 0.05*float64(want) {
		t.Fatalf("mean think = %v, want ~%v", mean, want)
	}
}

func TestDeterminism(t *testing.T) {
	a, b := gen(t, 7), gen(t, 7)
	for i := 0; i < 1000; i++ {
		ra, rb := a.Next(), b.Next()
		if ra != rb {
			t.Fatal("same-seed generators diverged")
		}
	}
}

func TestValueSizeForKeyStable(t *testing.T) {
	p := ETC()
	for key := uint64(0); key < 100; key++ {
		a := ValueSizeForKey(p, key)
		b := ValueSizeForKey(p, key)
		if a != b {
			t.Fatalf("key %d size unstable: %d vs %d", key, a, b)
		}
		if a < 1 || a > p.MaxValue {
			t.Fatalf("key %d size %d out of bounds", key, a)
		}
	}
}

// TestValueSizeForKeyTable pins the whole ETC prewarm table: every memcached
// server's GET sizes come from it, so a change to how a key's size is drawn
// changes every memcached result.
func TestValueSizeForKeyTable(t *testing.T) {
	p := ETC()
	h := fnv.New64a()
	var b []byte
	for key := uint64(0); key < uint64(p.Keys); key++ {
		b = binary.LittleEndian.AppendUint64(b[:0], uint64(ValueSizeForKey(p, key)))
		h.Write(b)
	}
	if got, want := h.Sum64(), uint64(0x40e6ed8e9a13d5ee); got != want {
		t.Fatalf("ETC size table digest = %#x, want %#x", got, want)
	}
}

func TestValueSizeForKeyAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	p := ETC()
	key := uint64(12345678901234567890)
	if n := testing.AllocsPerRun(100, func() { ValueSizeForKey(p, key) }); n != 0 {
		t.Fatalf("ValueSizeForKey allocates %v objects per call, want 0", n)
	}
}

func TestValidate(t *testing.T) {
	bad := []func(*ETCParams){
		func(p *ETCParams) { p.Keys = 0 },
		func(p *ETCParams) { p.GetRatio = 1.5 },
		func(p *ETCParams) { p.MaxValue = 0 },
		func(p *ETCParams) { p.ValSigma = 0 },
	}
	for i, mut := range bad {
		p := ETC()
		mut(&p)
		if err := p.Validate(); err == nil {
			t.Fatalf("case %d should not validate", i)
		}
	}
}
