package exp

import (
	"avmem/internal/core"
	"avmem/internal/node"
	"avmem/internal/obs"
	"avmem/internal/ops"
	"avmem/internal/sim"
)

// flushObs publishes the counters a deployment's layers keep as plain
// fields next to their state — the engines are single-threaded, so every
// membership counts into one core.DiscoveryStats (core.Config.Stats) and
// every router into one ops.FloodStats (ops.RouterConfig.Stats), and the
// simulated network counts what became of address memos — as
// core_discovery_*_total, ops_seen_* / ops_hash_order_*,
// ops_inbound_rejected_total{reason} (messages the router dropped on
// arrival: the auditor refused them, or the in-neighbor check failed),
// sim_net_addr_memo_total{result}, shuffle_received_dropped_total
// (entries the central shuffle refused for naming no node) and
// node_inbound_messages_total{kind} (the messages memnet nodes received:
// shuffle requests, shuffle replies, operation traffic). The engine's
// flush hook (sim.World.OnFlush) calls publish, which adds what is new
// since the last call — so /metrics and -metrics-out show pair hashes per
// pass, the share of duplicates the seen-set's front cache answered and
// sorts per hash-order request without a profiler. Determinism-neutral:
// it only reads, and reads a few structs however many hosts there are.
type flushObs struct {
	counters [len(flushedFamilies)]*obs.Counter
	last     [len(flushedFamilies)]int64
}

// flushedFamilies names the metric families, in flushedFields order.
var flushedFamilies = [...]string{
	"core_discovery_passes_total",
	"core_discovery_full_passes_total",
	"core_discovery_slots_offered_total",
	"core_discovery_slots_skipped_total",
	"core_discovery_evaluated_total",
	"core_discovery_pair_hashes_total",
	"core_discovery_admitted_total",
	"shuffle_received_dropped_total",
	"ops_seen_checks_total",
	"ops_seen_front_hits_total",
	"ops_hash_order_requests_total",
	"ops_hash_order_sorts_total",
	`ops_inbound_rejected_total{reason="audit"}`,
	`ops_inbound_rejected_total{reason="in-neighbor"}`,
	`sim_net_addr_memo_total{result="hit"}`,
	`sim_net_addr_memo_total{result="absent"}`,
	`sim_net_addr_memo_total{result="mismatch"}`,
	`node_inbound_messages_total{kind="shuffle-request"}`,
	`node_inbound_messages_total{kind="shuffle-reply"}`,
	`node_inbound_messages_total{kind="op"}`,
}

func flushedFields(s core.DiscoveryStats, dropped int, f ops.FloodStats, in node.InboundStats, m sim.AddrMemoStats) [len(flushedFamilies)]int64 {
	return [...]int64{s.Passes, s.FullPasses, s.Offered, s.Skipped, s.Evaluated, s.Hashes, s.Admitted,
		int64(dropped),
		f.SeenChecks, f.SeenFrontHits, f.OrderRequests, f.OrderSorts, f.RejectedAudit, f.RejectedInNeighbor,
		m.Hit, m.Absent, m.Mismatch,
		in.ShuffleRequests, in.ShuffleReplies, in.Ops}
}

func newFlushObs(reg *obs.Registry) *flushObs {
	o := &flushObs{}
	for i, name := range flushedFamilies {
		o.counters[i] = reg.Counter(name)
	}
	return o
}

// publish adds the growth of the totals since the last call; dropped is
// the central shuffle's count, inbound the memnet nodes' and memo the
// simulated network's (zero where there is none).
func (o *flushObs) publish(stats core.DiscoveryStats, dropped int, flood ops.FloodStats, inbound node.InboundStats, memo sim.AddrMemoStats) {
	total := flushedFields(stats, dropped, flood, inbound, memo)
	for i, c := range o.counters {
		c.Add(total[i] - o.last[i])
	}
	o.last = total
}
