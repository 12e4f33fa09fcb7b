package ops

import (
	"fmt"

	"avmem/internal/obs"
)

// collectorObs is the Collector's instrument set: per-op outcome
// counters and hop/latency distributions. Bumps happen inside the
// collector's existing mutex sections, on the same success/failure
// paths that mutate the records — so the counters are exactly the
// record deltas. An uninstrumented collector's instruments are nil,
// and every obs instrument no-ops on a nil receiver.
type collectorObs struct {
	anycastDelivered    *obs.Counter   // ops_anycast_delivered_total
	anycastTTLExpired   *obs.Counter   // ops_anycast_ttl_expired_total
	anycastRetryExpired *obs.Counter   // ops_anycast_retry_expired_total
	anycastHops         *obs.Histogram // ops_anycast_hops
	anycastLatencyMs    *obs.Histogram // ops_anycast_latency_ms
	multicastDelivered  *obs.Counter   // ops_multicast_delivered_total
	multicastSpam       *obs.Counter   // ops_multicast_spam_total
	rangecastDelivered  *obs.Counter   // ops_rangecast_delivered_total
	rangecastSpam       *obs.Counter   // ops_rangecast_spam_total
	rangecastDepth      *obs.Histogram // ops_rangecast_depth
	aggResults          *obs.Counter   // ops_agg_results_total
	// ops_agg_rejected_partials_total{reason=...}, read-only after
	// Instrument
	aggRejectedPartials map[string]*obs.Counter
	aggForgeryRejected  *obs.Counter // ops_agg_forgery_rejected_total
	aggForgeryAccepted  *obs.Counter // ops_agg_forgery_accepted_total
}

// Instrument registers the collector's metrics in reg and starts
// recording into them. Safe to call on a collector already in use;
// a nil registry leaves it uninstrumented.
func (c *Collector) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	ins := collectorObs{
		anycastDelivered:    reg.Counter("ops_anycast_delivered_total"),
		anycastTTLExpired:   reg.Counter("ops_anycast_ttl_expired_total"),
		anycastRetryExpired: reg.Counter("ops_anycast_retry_expired_total"),
		anycastHops:         reg.Histogram("ops_anycast_hops", 1, 2, 3, 4, 6, 8, 12),
		anycastLatencyMs:    reg.Histogram("ops_anycast_latency_ms", 50, 100, 200, 400, 800, 1600, 3200),
		multicastDelivered:  reg.Counter("ops_multicast_delivered_total"),
		multicastSpam:       reg.Counter("ops_multicast_spam_total"),
		rangecastDelivered:  reg.Counter("ops_rangecast_delivered_total"),
		rangecastSpam:       reg.Counter("ops_rangecast_spam_total"),
		rangecastDepth:      reg.Histogram("ops_rangecast_depth", 1, 2, 3, 4, 6, 8, 12),
		aggResults:          reg.Counter("ops_agg_results_total"),
		aggRejectedPartials: make(map[string]*obs.Counter, len(AggRejectReasons)),
		aggForgeryRejected:  reg.Counter("ops_agg_forgery_rejected_total"),
		aggForgeryAccepted:  reg.Counter("ops_agg_forgery_accepted_total"),
	}
	for _, reason := range AggRejectReasons {
		ins.aggRejectedPartials[reason] = reg.Counter(AggRejectedCounter(reason))
	}
	c.mu.Lock()
	c.ins = ins
	c.mu.Unlock()
}

// AggRejectReasons is the closed set of reasons the PDF sanity checks
// reject a merged partial for (Router.partialSuspect) — the labels of
// ops_agg_rejected_partials_total and of the auditor's soft evidence.
var AggRejectReasons = []string{"agg-count-bounds", "agg-hull-bounds", "agg-avg-bounds"}

// AggRejectedCounter names the registry counter of partials rejected for
// reason.
func AggRejectedCounter(reason string) string {
	return fmt.Sprintf("ops_agg_rejected_partials_total{reason=%q}", reason)
}
