package exp

import (
	"avmem/internal/core"
	"avmem/internal/obs"
)

// discoveryObs publishes a deployment's discovery counters — one
// core.DiscoveryStats all its memberships count into (core.Config.Stats:
// the engines are single-threaded) — as core_discovery_*_total, plus the
// entries the central shuffle refused for naming no node. The engine's
// flush hook (sim.World.OnFlush) calls publish, which adds what is new
// since the last call — so /metrics and -metrics-out show pair hashes per
// pass and the share of view slots a memo word settled without a
// profiler. Determinism-neutral: it only reads, and reads one struct
// however many hosts there are.
type discoveryObs struct {
	counters    [len(discoveryFamilies)]*obs.Counter
	last        [len(discoveryFamilies)]int64
	dropped     *obs.Counter
	lastDropped int
}

// discoveryFamilies names the metric families, in discoveryFields order.
var discoveryFamilies = [...]string{
	"core_discovery_passes_total",
	"core_discovery_full_passes_total",
	"core_discovery_slots_offered_total",
	"core_discovery_slots_skipped_total",
	"core_discovery_evaluated_total",
	"core_discovery_pair_hashes_total",
	"core_discovery_admitted_total",
}

func discoveryFields(s core.DiscoveryStats) [len(discoveryFamilies)]int64 {
	return [...]int64{s.Passes, s.FullPasses, s.Offered, s.Skipped, s.Evaluated, s.Hashes, s.Admitted}
}

func newDiscoveryObs(reg *obs.Registry) *discoveryObs {
	o := &discoveryObs{dropped: reg.Counter("shuffle_received_dropped_total")}
	for i, name := range discoveryFamilies {
		o.counters[i] = reg.Counter(name)
	}
	return o
}

// publish adds the growth of the totals since the last call; dropped is
// the central shuffle's count (0 where there is none).
func (o *discoveryObs) publish(stats core.DiscoveryStats, dropped int) {
	total := discoveryFields(stats)
	for i, c := range o.counters {
		c.Add(total[i] - o.last[i])
	}
	o.dropped.Add(int64(dropped - o.lastDropped))
	o.last, o.lastDropped = total, dropped
}
