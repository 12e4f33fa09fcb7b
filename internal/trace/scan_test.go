package trace

import (
	"math/rand"
	"reflect"
	"testing"
)

// TestWordScansMatchBitReference checks every word-speed scan against a
// bit-at-a-time reference built from Up alone, on random traces whose
// row lengths sit on and around the word boundary (1, 63, 64, 65 epochs)
// and at the Overnet length (504): every upto, every window edge pair
// (both clamped past the ends), every epoch's online count and hosts, and
// the mean.
func TestWordScansMatchBitReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, epochs := range []int{1, 63, 64, 65, 504} {
		hosts := 6
		tr := mustNew(t, hosts, epochs)
		for h := 0; h < hosts; h++ {
			// Rows 0 and 1 are all down and all up: the masks must not
			// count what lies past either end of a window.
			density := [...]float64{0, 1, 0.5, 0.1, 0.9, rng.Float64()}[h]
			for e := 0; e < epochs; e++ {
				if rng.Float64() < density {
					tr.SetUp(h, e, true)
				}
			}
		}
		// prefix[h][e] counts host h's up epochs before e, bit by bit.
		prefix := make([][]int, hosts)
		for h := range prefix {
			prefix[h] = make([]int, epochs+1)
			for e := 0; e < epochs; e++ {
				prefix[h][e+1] = prefix[h][e]
				if tr.Up(h, e) {
					prefix[h][e+1]++
				}
			}
		}
		clamp := func(e int) int { return min(max(e, 0), epochs-1) }
		for h := 0; h < hosts; h++ {
			for upto := -1; upto <= epochs; upto++ {
				wantRaw, wantSmooth := 0.0, 0.5
				if upto >= 0 {
					u := clamp(upto)
					wantRaw = float64(prefix[h][u+1]) / float64(u+1)
					wantSmooth = float64(prefix[h][u+1]+1) / float64(u+3)
				}
				if got := tr.Availability(h, upto); got != wantRaw {
					t.Fatalf("epochs %d host %d: Availability(upto %d) = %v, want %v", epochs, h, upto, got, wantRaw)
				}
				if got := tr.SmoothedAvailability(h, upto); got != wantSmooth {
					t.Fatalf("epochs %d host %d: SmoothedAvailability(upto %d) = %v, want %v", epochs, h, upto, got, wantSmooth)
				}
			}
			for from := -1; from <= epochs; from++ {
				for to := -1; to <= epochs; to++ {
					want := 0.0
					if lo, hi := max(from, 0), min(to, epochs-1); lo <= hi {
						want = float64(prefix[h][hi+1]-prefix[h][lo]) / float64(hi-lo+1)
					}
					if got := tr.WindowAvailability(h, from, to); got != want {
						t.Fatalf("epochs %d host %d: WindowAvailability(%d, %d) = %v, want %v", epochs, h, from, to, got, want)
					}
				}
			}
		}
		total := 0
		for e := 0; e < epochs; e++ {
			var want []int
			for h := 0; h < hosts; h++ {
				if tr.Up(h, e) {
					want = append(want, h)
				}
			}
			total += len(want)
			if got := tr.OnlineCount(e); got != len(want) {
				t.Fatalf("epochs %d: OnlineCount(%d) = %d, want %d", epochs, e, got, len(want))
			}
			if got := tr.OnlineHosts(e); len(got) != len(want) || len(want) > 0 && !reflect.DeepEqual(got, want) {
				t.Fatalf("epochs %d: OnlineHosts(%d) = %v, want %v", epochs, e, got, want)
			}
		}
		if got, want := tr.MeanOnline(), float64(total)/float64(epochs); got != want {
			t.Fatalf("epochs %d: MeanOnline = %v, want %v", epochs, got, want)
		}
	}
}
