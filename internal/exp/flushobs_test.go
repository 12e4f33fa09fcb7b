package exp

import (
	"testing"
	"time"

	"avmem/internal/core"
	"avmem/internal/node"
	"avmem/internal/obs"
	"avmem/internal/ops"
	"avmem/internal/sim"
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
		t.Cleanup(d.Stop)
		d.RunFor(3 * time.Hour)
		d.RunFor(time.Hour)
		want := flushedFields(d.discovery, 0, ops.FloodStats{}, node.InboundStats{}, sim.AddrMemoStats{})
		// 120 protocol periods: every host of the fleet must have counted.
		if hosts := int64(len(d.Hosts())); want[0] < 20*hosts || d.Membership(d.Hosts()[0]).DiscoveryStats() != d.discovery {
			t.Errorf("%s: %d passes for %d hosts, or a membership counting on its own", backend, want[0], hosts)
		}
		got := map[string]int64{}
		for i, name := range flushedFamilies[:7] { // the core_discovery_* families
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

// TestFloodCountersPublished: the flood path's own counters reach the
// registry on both engines — every router, the memnet engine's nodes'
// through node.Universe, counts into the deployment's one
// ops.FloodStats — and read what the routers counted; on both engines
// every address crosses the network with a memo that verifies, except
// the origin-addressed results. The memnet nodes' inbound counts by kind
// reach it the same way.
func TestFloodCountersPublished(t *testing.T) {
	for _, backend := range []string{BackendSim, BackendMemnet} {
		reg := obs.NewRegistry()
		d, err := NewDeployment(backend, WorldConfig{
			Seed:           5,
			Trace:          testClusterTrace(t, 5, 120),
			ProtocolPeriod: 2 * time.Minute,
			Metrics:        reg,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(d.Stop)
		d.RunFor(4 * time.Hour)
		recs := multicasts(t, d, 0, 1.01, ops.Target{Lo: 0.3, Hi: 1},
			ops.MulticastOptions{Anycast: ops.DefaultAnycastOptions(), MulticastSpec: ops.MulticastSpec{Mode: ops.Flood, Flavor: core.HSVS}}, 12)
		if entered := meanOf(recs, func(r *ops.MulticastRecord) float64 {
			if r.EnteredRange {
				return 1
			}
			return 0
		}); entered == 0 {
			t.Fatalf("%s: none of %d multicasts entered the target", backend, len(recs))
		}
		read := func(name string) int64 { return reg.Counter(name).Value() }
		checks, front := read("ops_seen_checks_total"), read("ops_seen_front_hits_total")
		requests, sorts := read("ops_hash_order_requests_total"), read("ops_hash_order_sorts_total")
		if checks == 0 || front == 0 || front >= checks || requests == 0 || sorts == 0 || sorts > requests {
			t.Errorf("%s: seen %d checks / %d front hits, hash orders %d requests / %d sorts", backend, checks, front, requests, sorts)
		}
		hit, absent, mismatch := read(`sim_net_addr_memo_total{result="hit"}`),
			read(`sim_net_addr_memo_total{result="absent"}`), read(`sim_net_addr_memo_total{result="mismatch"}`)
		if d.flood.SeenChecks != checks || d.flood.OrderSorts != sorts {
			t.Errorf("%s: registry reads %d checks / %d sorts, the routers counted %+v", backend, checks, sorts, d.flood)
		}
		// Both engines' nodes send over the simulated network, stamped with
		// their host index: the memos must reach it and verify.
		if hit == 0 || mismatch != 0 || absent*10 > hit {
			t.Errorf("%s: address memos hit %d, absent %d, mismatch %d", backend, hit, absent, mismatch)
		}
		// Memnet nodes count what they receive by kind through
		// node.Universe; the sim engine has no nodes and counts none.
		in := node.InboundStats{ShuffleRequests: read(`node_inbound_messages_total{kind="shuffle-request"}`),
			ShuffleReplies: read(`node_inbound_messages_total{kind="shuffle-reply"}`),
			Ops:            read(`node_inbound_messages_total{kind="op"}`)}
		switch {
		case in != d.inbound:
			t.Errorf("%s: registry reads inbound %+v, the nodes counted %+v", backend, in, d.inbound)
		case backend == BackendSim && in != (node.InboundStats{}):
			t.Errorf("sim: inbound messages counted without nodes: %+v", in)
		case backend == BackendMemnet && (in.ShuffleRequests == 0 || in.ShuffleReplies == 0 ||
			in.ShuffleReplies > in.ShuffleRequests || in.Ops == 0):
			t.Errorf("memnet: inbound %+v, want requests, no more replies than requests, and operation traffic", in)
		}
	}
}
