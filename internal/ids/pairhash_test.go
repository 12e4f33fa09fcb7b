package ids

import (
	"strings"
	"testing"
)

// pairBytes fills n bytes from a pattern that includes 0x00 (the byte
// padding is made of) and 0x80 (the padding terminator), shifted by
// seed so x and y differ.
func pairBytes(n, seed int) NodeID {
	pattern := []byte{0x00, 0x80, 0xff, '1', '.', ':', 0x7f, 0x01}
	b := make([]byte, n)
	for i := range b {
		b[i] = pattern[(i+seed)%len(pattern)] ^ byte(i*seed)
	}
	return NodeID(b)
}

// TestPairDigestMatchesSum256Exhaustive compares the digest PairHash
// uses against sha256.Sum256 over every (len(x), len(y)) with a message
// of 8 to 64 bytes: every one-block length, across the 55/56 boundary
// where the kernel hands over to the fallback, to a full block.
func TestPairDigestMatchesSum256Exhaustive(t *testing.T) {
	kernel := 0
	for n := 8; n <= 64; n++ {
		for lx := 0; lx <= n-8; lx++ {
			for seed := 0; seed < 3; seed++ {
				x, y := pairBytes(lx, seed), pairBytes(n-8-lx, seed+5)
				got, want := pairDigest64(x, y), pairDigestSum(x, y)
				if got != want {
					t.Fatalf("len(x)=%d len(y)=%d seed %d: digest %016x, sha256.Sum256 %016x", lx, n-8-lx, seed, got, want)
				}
				if h := PairHash(x, y); h != float64(want>>1)/two63 {
					t.Fatalf("len(x)=%d len(y)=%d seed %d: PairHash %v, want %v", lx, n-8-lx, seed, h, float64(want>>1)/two63)
				}
				if useSHANI && n <= oneBlock {
					kernel++
				}
			}
		}
	}
	if !useSHANI {
		t.Log("CPU without the SHA-NI kernel: only the sha256.Sum256 fallback ran")
	} else if kernel == 0 {
		t.Fatal("the SHA-NI kernel never ran")
	}
}

// TestPairHashDoesNotAllocate pins that the padded block stays on the
// stack: the kernel's pointer argument must not escape.
func TestPairHashDoesNotAllocate(t *testing.T) {
	x, y := Synthetic(1), Synthetic(70000)
	long := NodeID(strings.Repeat("h", 100))
	if n := testing.AllocsPerRun(100, func() {
		PairHash(x, y)
		PairHash(long, x)
	}); n != 0 {
		t.Errorf("PairHash allocates %v times per call pair, want 0", n)
	}
}

// FuzzPairHash compares the digest PairHash uses against sha256.Sum256
// on arbitrary identifiers. Seed corpus: testdata/fuzz/FuzzPairHash.
func FuzzPairHash(f *testing.F) {
	if !useSHANI {
		f.Log("CPU without the SHA-NI kernel: only the sha256.Sum256 fallback runs")
	}
	f.Fuzz(func(t *testing.T, x, y string) {
		if got, want := pairDigest64(NodeID(x), NodeID(y)), pairDigestSum(NodeID(x), NodeID(y)); got != want {
			t.Fatalf("PairHash(%q, %q): digest %016x, sha256.Sum256 %016x", x, y, got, want)
		}
	})
}
