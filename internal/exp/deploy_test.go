package exp

import (
	"testing"
	"time"

	"avmem/internal/core"
	"avmem/internal/ops"
)

// TestRandomSeedsDistinctAndBounded: bootstrap seeds never repeat a
// host, never include self, and tiny populations terminate (the seed
// bug: sampling with replacement could return the same host twice and
// spin when n exceeded the distinct-host count).
func TestRandomSeedsDistinctAndBounded(t *testing.T) {
	w := smallWorld(t, 6)
	self := w.Hosts()[0]
	for trial := 0; trial < 50; trial++ {
		seeds := w.randomSeeds(self, 4)
		if len(seeds) != 4 {
			t.Fatalf("got %d seeds, want 4", len(seeds))
		}
		seen := map[string]bool{}
		for _, s := range seeds {
			if s == self {
				t.Fatal("self returned as a bootstrap seed")
			}
			if seen[string(s)] {
				t.Fatalf("duplicate seed %v in %v", s, seeds)
			}
			seen[string(s)] = true
		}
	}
	// n greater than the distinct-host count must cap, not spin.
	if got := w.randomSeeds(self, len(w.Hosts())+10); len(got) != len(w.Hosts())-1 {
		t.Errorf("oversized request returned %d seeds, want %d", len(got), len(w.Hosts())-1)
	}
}

// TestChurnBurstRecovery: after a mass forced outage the overlay keeps
// functioning — the remaining online nodes still route anycasts.
func TestChurnBurstRecovery(t *testing.T) {
	w := smallWorld(t, 4)
	online := w.OnlineHosts()
	until := w.Now() + 40*time.Minute
	for i, id := range online {
		if i%2 == 0 {
			w.ForceOffline(id, until)
		}
	}
	w.RunFor(5 * time.Minute)
	recs := anycasts(t, w, 0, 1.01, ops.Target{Lo: 0.85, Hi: 0.95},
		ops.AnycastOptions{Policy: ops.Greedy, Flavor: core.HSVS, TTL: 6}, 10, 2*time.Second)
	if len(recs) == 0 {
		t.Fatal("no anycasts initiated during the storm")
	}
	if f := deliveredFraction(recs); f < 0.5 {
		t.Errorf("delivery during 50%% outage = %.2f, want >= 0.5", f)
	}
}
