package ids

import (
	"math"
	"testing"
	"testing/quick"
)

func TestPairHashRange(t *testing.T) {
	pairs := [][2]NodeID{
		{"a", "b"},
		{"10.0.0.1:4000", "10.0.0.2:4001"},
		{"", ""},
		{"x", ""},
		{"", "x"},
		{"long-identifier-with-lots-of-text", "another-one"},
	}
	for _, p := range pairs {
		h := PairHash(p[0], p[1])
		if h < 0 || h >= 1 {
			t.Errorf("PairHash(%q,%q) = %v, want in [0,1)", p[0], p[1], h)
		}
	}
}

func TestPairHashConsistency(t *testing.T) {
	x, y := NodeID("10.1.2.3:4000"), NodeID("10.4.5.6:4001")
	first := PairHash(x, y)
	for i := 0; i < 10; i++ {
		if got := PairHash(x, y); got != first {
			t.Fatalf("PairHash not consistent: got %v want %v", got, first)
		}
	}
}

func TestPairHashOrderDependent(t *testing.T) {
	x, y := NodeID("10.1.2.3:4000"), NodeID("10.4.5.6:4001")
	if PairHash(x, y) == PairHash(y, x) {
		t.Errorf("PairHash(x,y) == PairHash(y,x); expected independent draws")
	}
}

func TestPairHashNoBoundaryCollision(t *testing.T) {
	// ("ab","c") must differ from ("a","bc"): length prefixing at work.
	if PairHash("ab", "c") == PairHash("a", "bc") {
		t.Errorf(`PairHash("ab","c") == PairHash("a","bc"); boundary ambiguity`)
	}
}

func TestPairHashUniformity(t *testing.T) {
	// Mean of many hashes should be near 0.5 and buckets roughly equal.
	const n = 20000
	const buckets = 10
	var sum float64
	counts := make([]int, buckets)
	for i := 0; i < n; i++ {
		h := PairHash(Synthetic(i), Synthetic(i+1))
		sum += h
		b := int(h * buckets)
		if b == buckets {
			b--
		}
		counts[b]++
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.02 {
		t.Errorf("mean hash = %v, want ~0.5", mean)
	}
	for b, c := range counts {
		frac := float64(c) / n
		if math.Abs(frac-0.1) > 0.02 {
			t.Errorf("bucket %d has fraction %v, want ~0.1", b, frac)
		}
	}
}

func TestPairHashQuickProperties(t *testing.T) {
	prop := func(x, y string) bool {
		h := PairHash(NodeID(x), NodeID(y))
		return h >= 0 && h < 1 && h == PairHash(NodeID(x), NodeID(y))
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestSelfHash(t *testing.T) {
	h1 := SelfHash("10.0.0.1:4000")
	h2 := SelfHash("10.0.0.1:4000")
	h3 := SelfHash("10.0.0.2:4000")
	if h1 != h2 {
		t.Errorf("SelfHash not consistent")
	}
	if h1 == h3 {
		t.Errorf("SelfHash collision for distinct ids (vanishingly unlikely)")
	}
	if h1 < 0 || h1 >= 1 {
		t.Errorf("SelfHash out of range: %v", h1)
	}
}

func TestSynthetic(t *testing.T) {
	seen := make(map[NodeID]bool)
	for i := 0; i < 5000; i++ {
		id := Synthetic(i)
		if seen[id] {
			t.Fatalf("Synthetic(%d) = %q collides with an earlier id", i, id)
		}
		seen[id] = true
	}
}

func TestHashCache(t *testing.T) {
	c := NewHashCache(0)
	x, y := Synthetic(1), Synthetic(2)
	direct := PairHash(x, y)
	if got := c.Pair(x, y); got != direct {
		t.Errorf("cache miss value = %v, want %v", got, direct)
	}
	if got := c.Pair(x, y); got != direct {
		t.Errorf("cache hit value = %v, want %v", got, direct)
	}
	if c.Len() != 1 {
		t.Errorf("cache Len = %d, want 1", c.Len())
	}
}

func TestHashCacheZeroValue(t *testing.T) {
	var c HashCache
	if got, want := c.Pair("a", "b"), PairHash("a", "b"); got != want {
		t.Errorf("zero-value cache Pair = %v, want %v", got, want)
	}
}

func TestHashCacheEviction(t *testing.T) {
	c := NewHashCache(4)
	for i := 0; i < 20; i++ {
		c.Pair(Synthetic(i), Synthetic(i+1))
	}
	if c.Len() > 4 {
		t.Errorf("cache exceeded bound: len=%d", c.Len())
	}
	// Values must still be correct after eviction.
	if got, want := c.Pair(Synthetic(0), Synthetic(1)), PairHash(Synthetic(0), Synthetic(1)); got != want {
		t.Errorf("post-eviction value = %v, want %v", got, want)
	}
}

func TestClamp01(t *testing.T) {
	tests := []struct{ in, want float64 }{
		{-1, 0},
		{0, 0},
		{0.5, 0.5},
		{1, 1},
		{2, 1},
		{math.NaN(), 0},
		{math.Inf(1), 1},
		{math.Inf(-1), 0},
	}
	for _, tc := range tests {
		if got := Clamp01(tc.in); got != tc.want {
			t.Errorf("Clamp01(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

func TestNodeIDNil(t *testing.T) {
	if !Nil.IsNil() {
		t.Error("Nil.IsNil() = false")
	}
	if Synthetic(0).IsNil() {
		t.Error("Synthetic(0).IsNil() = true")
	}
	if Nil.String() != "" {
		t.Errorf("Nil.String() = %q", Nil.String())
	}
}

func BenchmarkPairHash(b *testing.B) {
	x, y := Synthetic(1), Synthetic(2)
	for i := 0; i < b.N; i++ {
		PairHash(x, y)
	}
}

func BenchmarkHashCachePair(b *testing.B) {
	c := NewHashCache(0)
	x, y := Synthetic(1), Synthetic(2)
	c.Pair(x, y)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Pair(x, y)
	}
}
