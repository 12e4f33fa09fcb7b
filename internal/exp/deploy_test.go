package exp

import (
	"fmt"
	"testing"
	"time"

	"avmem/internal/core"
	"avmem/internal/ops"
	"avmem/internal/trace"
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

// BenchmarkNewDeployment times construction alone — trace statistics,
// predicate, network, monitor, and every host's membership, router and
// Cyclon join on the sim engine — on 7-day traces of the benchmark
// workloads' sizes. The trace is generated outside the timer. Run it as
// fixed, repeated work (go test -bench NewDeployment -count 10) rather
// than reading setup time off one end-to-end run.
func BenchmarkNewDeployment(b *testing.B) {
	for _, hosts := range []int{2000, 10000} {
		b.Run(fmt.Sprintf("%dk", hosts/1000), func(b *testing.B) {
			gen := trace.DefaultGenConfig(1)
			gen.Hosts, gen.Epochs = hosts, 7*24*3
			tr, err := trace.Generate(gen)
			if err != nil {
				b.Fatal(err)
			}
			cfg := WorldConfig{Seed: 1, Trace: tr, ProtocolPeriod: 2 * time.Minute}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := NewDeployment(BackendSim, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
