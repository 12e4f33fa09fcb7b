package exp

import (
	"testing"
	"time"

	"avmem/internal/core"
	"avmem/internal/obs"
)

// TestDiscoveryCountersPublished: on both engines every membership
// counts into the deployment's one core.DiscoveryStats, the registry's
// core_discovery_*_total families read exactly that after a run (the
// flush hook fires on run-loop exit), and they describe a loop that skips
// and re-uses hashes — so the exported ratios mean what DESIGN.md §3 says
// they mean.
func TestDiscoveryCountersPublished(t *testing.T) {
	for _, backend := range []string{BackendSim, BackendMemnet} {
		reg := obs.NewRegistry()
		d, err := NewDeployment(backend, WorldConfig{
			Seed:           3,
			Trace:          testClusterTrace(t, 3, 80),
			ProtocolPeriod: 2 * time.Minute,
			Metrics:        reg,
		})
		if err != nil {
			t.Fatal(err)
		}
		stats := func() core.DiscoveryStats { return d.(*World).discovery }
		if c, ok := d.(*Cluster); ok {
			t.Cleanup(c.Stop)
			stats = func() core.DiscoveryStats { return c.discovery }
		}
		d.Warmup(3 * time.Hour)
		d.RunFor(time.Hour)
		want := discoveryFields(stats())
		// 120 protocol periods: every host of the fleet must have counted.
		if hosts := int64(len(d.Hosts())); want[0] < 20*hosts || d.Membership(d.Hosts()[0]).DiscoveryStats() != stats() {
			t.Errorf("%s: %d passes for %d hosts, or a membership counting on its own", backend, want[0], hosts)
		}
		got := map[string]int64{}
		for i, name := range discoveryFamilies {
			got[name] = reg.Counter(name).Value()
			if got[name] != want[i] || want[i] == 0 {
				t.Errorf("%s: %s = %d, the deployment counted %d (want equal, non-zero)", backend, name, got[name], want[i])
			}
		}
		if got["core_discovery_slots_skipped_total"]*4 < got["core_discovery_slots_offered_total"] ||
			got["core_discovery_pair_hashes_total"] >= got["core_discovery_evaluated_total"] ||
			got["core_discovery_full_passes_total"] >= got["core_discovery_passes_total"] {
			t.Errorf("%s: counters do not describe delta passes over memoized hashes: %v", backend, got)
		}
	}
}
