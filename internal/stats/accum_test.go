package stats

import (
	"math"
	"testing"
)

func TestAccumulatorMatchesSummarize(t *testing.T) {
	vals := []float64{3, -1, 7, 7, 0.5, 12, -4.25}
	var a Accumulator
	for _, v := range vals {
		a.Add(v)
	}
	want := Summarize(vals)
	if a.Count() != want.Count || a.Mean() != want.Mean || a.Min() != want.Min || a.Max() != want.Max {
		t.Fatalf("accumulator %+v disagrees with Summarize %+v", a, want)
	}
}

func TestAccumulatorEmpty(t *testing.T) {
	var a Accumulator
	if a.Count() != 0 || !math.IsNaN(a.Mean()) || !math.IsNaN(a.Min()) || !math.IsNaN(a.Max()) {
		t.Fatalf("empty accumulator should report NaN summaries, got %+v", a)
	}
}

func TestReservoirExactBelowCapacity(t *testing.T) {
	r := NewReservoir(100, 1)
	var vals []float64
	for i := 0; i < 50; i++ {
		v := float64((i * 37) % 50)
		vals = append(vals, v)
		r.Add(v)
	}
	for _, p := range []float64{0, 25, 50, 90, 100} {
		if got, want := r.Percentile(p), Percentile(vals, p); got != want {
			t.Fatalf("p%.0f = %v, want %v (exact regime)", p, got, want)
		}
	}
}

func TestReservoirDeterministicAndApproximate(t *testing.T) {
	run := func() float64 {
		r := NewReservoir(256, 9)
		for i := 0; i < 20000; i++ {
			r.Add(float64(i))
		}
		if r.Count() != 20000 {
			t.Fatalf("count = %d", r.Count())
		}
		return r.Percentile(50)
	}
	p1, p2 := run(), run()
	if p1 != p2 {
		t.Fatalf("reservoir not deterministic: %v vs %v", p1, p2)
	}
	// The true median is 9999.5; a 256-sample sketch should land within
	// a generous tolerance of it.
	if math.Abs(p1-9999.5) > 2000 {
		t.Fatalf("median estimate %v too far from 9999.5", p1)
	}
}

func TestReservoirEmpty(t *testing.T) {
	if !math.IsNaN(NewReservoir(8, 0).Percentile(50)) {
		t.Fatal("empty reservoir should report NaN")
	}
}

// TestSplitMix64KnownAnswers: the first outputs of the seed-0 stream are
// splitmix64's published ones, Int63 is the top 63 bits of Uint64, and
// Seed restarts a stream.
func TestSplitMix64KnownAnswers(t *testing.T) {
	want := []uint64{0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4, 0x06c45d188009454f}
	var s SplitMix64
	for i, w := range want {
		if got := s.Uint64(); got != w {
			t.Fatalf("output %d = %#x, want %#x", i, got, w)
		}
	}
	s.Seed(0)
	if got := s.Int63(); got != int64(want[0]>>1) {
		t.Errorf("Int63 = %#x, want %#x", got, want[0]>>1)
	}
	if a, b := NewSplitMix64(5).Uint64(), NewSplitMix64(5).Uint64(); a != b {
		t.Errorf("two streams of seed 5 start %#x and %#x", a, b)
	}
}
