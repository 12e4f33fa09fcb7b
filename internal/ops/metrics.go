package ops

import (
	"maps"
	"math"
	"slices"
	"sort"
	"sync"
	"time"

	"avmem/internal/agg"
	"avmem/internal/ids"
)

// AnycastOutcome is the terminal state of one anycast operation.
type AnycastOutcome int

// Anycast outcomes. Pending operations have OutcomePending.
const (
	OutcomePending AnycastOutcome = iota
	// OutcomeDelivered: the message reached a node inside the target.
	OutcomeDelivered
	// OutcomeTTLExpired: the TTL ran out before reaching the target.
	OutcomeTTLExpired
	// OutcomeRetryExpired: the retry budget ran out (RetriedGreedy) or
	// no next hop existed.
	OutcomeRetryExpired
)

// String implements fmt.Stringer; an unknown outcome reads as pending.
func (o AnycastOutcome) String() string {
	if o < OutcomeDelivered || o > OutcomeRetryExpired {
		return "pending"
	}
	return [...]string{OutcomeDelivered: "delivered", OutcomeTTLExpired: "ttl-expired", OutcomeRetryExpired: "retry-expired"}[o]
}

// AnycastRecord accumulates the result of one anycast.
type AnycastRecord struct {
	ID      MsgID
	Target  Target
	Outcome AnycastOutcome
	// Hops is the virtual hop count at delivery.
	Hops int
	// Latency is the time from initiation to delivery.
	Latency time.Duration
}

// MulticastRecord accumulates the result of one multicast or range-cast.
type MulticastRecord struct {
	ID     MsgID
	Target Target
	// HalfOpen marks a range-cast: Target is the half-open band [Lo, Hi).
	HalfOpen bool
	// Eligible is the number of online in-range nodes at initiation
	// (set by the experiment; denominators for reliability and spam).
	Eligible int
	// Delivered maps in-range receivers to their first delivery time.
	Delivered map[string]time.Duration
	// Spam counts first deliveries to nodes outside the target.
	Spam int
	// EnteredRange reports whether stage one (the anycast) succeeded.
	EnteredRange bool
	// SentAt is the initiation time.
	SentAt time.Duration
	// LastDelivery is the latest first-delivery time observed.
	LastDelivery time.Duration
	// MaxDepth is the deepest dissemination hop count of an in-range
	// delivery.
	MaxDepth int
}

// Reliability returns delivered/eligible — a range-cast's coverage —
// capped at 1: Eligible is an initiation-time snapshot while Delivered
// integrates over the whole dissemination, so churn drifting extra nodes
// into the target can deliver to more in-range receivers than the
// snapshot counted.
func (r *MulticastRecord) Reliability() float64 {
	if r.Eligible == 0 {
		return 0
	}
	return math.Min(1, float64(len(r.Delivered))/float64(r.Eligible))
}

// SpamRatio returns spam receptions per eligible node.
func (r *MulticastRecord) SpamRatio() float64 {
	if r.Eligible == 0 {
		return 0
	}
	return float64(r.Spam) / float64(r.Eligible)
}

// WorstLatency returns the time from initiation to the last first
// delivery — the paper's multicast latency metric ("the time of the
// last receiving node obtaining the multicast"). Zero if nothing was
// delivered.
func (r *MulticastRecord) WorstLatency() time.Duration {
	if len(r.Delivered) == 0 {
		return 0
	}
	return r.LastDelivery - r.SentAt
}

// AggInstance is one redundant tree of a logical aggregation: its own
// operation id, the origin-minted binding token, and the slot the
// bound result lands in. Instance 0 reuses the logical operation's id.
type AggInstance struct {
	ID MsgID
	// Token is the origin-chosen binding secret (AggregateSpec.Token).
	Token uint64
	// EnteredBy is the entry node that became this tree's root, recorded
	// when the root flags stage-one success. Nil until then (and forever
	// in deployments where origin and root keep separate collectors).
	EnteredBy ids.NodeID
	// Done, Result, CompletedAt form the per-instance result slot.
	Done        bool
	Result      agg.Partial
	CompletedAt time.Duration
}

// AggregateRecord accumulates the result of one in-overlay
// aggregation.
type AggregateRecord struct {
	ID   MsgID
	Op   agg.Op
	Band Band
	// Eligible is the online in-band population at initiation (the
	// coverage denominator, experiment-supplied).
	Eligible int
	// Truth is the ground-truth aggregate at initiation
	// (experiment-supplied; NaN when no ground truth exists, e.g. a
	// live node initiating outside a harness).
	Truth float64
	// EnteredRange reports whether the entry anycast reached the band.
	EnteredRange bool
	// Done reports whether the origin resolved the operation;
	// Result and CompletedAt are meaningful only when set.
	Done        bool
	Result      agg.Partial
	SentAt      time.Duration
	CompletedAt time.Duration
	// Instances are the redundant tree slots (one at redundancy 1).
	Instances []AggInstance
	// Divergence is the fraction of returned instances that disagreed
	// with the cross-tree median at resolution (0 when at most one tree
	// returned).
	Divergence float64
}

// Value extracts the computed aggregate (NaN while pending or when no
// node contributed to a value operator).
func (r *AggregateRecord) Value() float64 {
	if !r.Done {
		return math.NaN()
	}
	return r.Result.Value(r.Op)
}

// Coverage returns contributors/eligible, capped at 1 for the same
// snapshot-vs-drift reason as MulticastRecord.Reliability.
func (r *AggregateRecord) Coverage() float64 {
	if r.Eligible == 0 {
		return 0
	}
	return math.Min(1, float64(r.Result.N)/float64(r.Eligible))
}

// TreeDepth returns the aggregation tree's hop radius (the deepest
// contributor).
func (r *AggregateRecord) TreeDepth() int { return r.Result.Depth }

// Latency returns initiation-to-result time (zero while pending).
func (r *AggregateRecord) Latency() time.Duration {
	if !r.Done {
		return 0
	}
	return r.CompletedAt - r.SentAt
}

// Accuracy compares the computed aggregate against the ground truth in
// [0,1]: 1 is exact. Count and Sum compare as a min/max ratio (scale-
// free); Min, Max, and Avg — values in [0,1] — as 1−|Δ|, floored at 0.
// An undelivered result scores 0; an operation whose ground truth and
// result are both empty scores 1 (an empty band aggregated exactly).
// Meaningful only when the initiator recorded ground truth
// (AggregateOptions.Truth/Eligible — the scenario engine always does).
func (r *AggregateRecord) Accuracy() float64 {
	if !r.Done {
		return 0
	}
	v := r.Result.Value(r.Op)
	switch r.Op {
	case agg.Count, agg.Sum:
		return ratioAccuracy(v, r.Truth)
	default:
		if math.IsNaN(r.Truth) != math.IsNaN(v) {
			return 0
		}
		if math.IsNaN(v) {
			return 1
		}
		d := math.Abs(v - r.Truth)
		if d > 1 {
			return 0
		}
		return 1 - d
	}
}

// ratioAccuracy scores two non-negative magnitudes as min/max, with
// the both-zero case exact.
func ratioAccuracy(a, b float64) float64 {
	if a == b {
		return 1
	}
	if a <= 0 || b <= 0 || math.IsNaN(a) || math.IsNaN(b) {
		return 0
	}
	if a > b {
		a, b = b, a
	}
	return a / b
}

// Collector aggregates operation outcomes across an experiment run.
// The Router reports into it; experiments read it after the run.
// A single mutex serializes every method: one collector is shared by
// the whole fleet, and live nodes (memnet, TCP) report into it from
// their own goroutines. Operations are rare next to protocol traffic,
// so the lock is uncontended in practice. For the same reason the
// record getters return copies taken under the lock, their maps and
// slices cloned: a reader never shares memory a router still writes.
type Collector struct {
	mu         sync.Mutex
	anycasts   map[MsgID]*AnycastRecord
	multicasts map[MsgID]*MulticastRecord
	aggregates map[MsgID]*AggregateRecord
	// aggOf maps every tree-instance id (including instance 0, which
	// reuses the logical id) to its logical record and instance slot.
	aggOf map[MsgID]aggSlot
	// sawEntry is set once any tree root records its entry here — i.e.
	// this collector is shared between origins and roots (both engines
	// deploy one collector fleet-wide). Only then is a result accepted
	// without a recorded root evidence of a race (see aggregateResult).
	sawEntry bool
	// Defense counters (see AggCounters).
	aggRejectedPartials int
	aggForgeryRejected  int
	aggForgeryAccepted  int
	// ins mirrors record mutations into the obs metrics registry
	// (instrument.go); its instruments are nil, and no-ops, until then.
	ins collectorObs
}

// aggSlot locates one tree instance: rec.Instances[i].
type aggSlot struct {
	rec *AggregateRecord
	i   int
}

// NewCollector creates an empty collector.
func NewCollector() *Collector {
	return &Collector{
		anycasts:   make(map[MsgID]*AnycastRecord, 256),
		multicasts: make(map[MsgID]*MulticastRecord, 128),
		aggregates: make(map[MsgID]*AggregateRecord, 64),
		aggOf:      make(map[MsgID]aggSlot, 64),
	}
}

// StartAnycast registers an anycast before initiation.
func (c *Collector) StartAnycast(id MsgID, target Target) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.anycasts[id] = &AnycastRecord{ID: id, Target: target, Outcome: OutcomePending}
}

// StartMulticast registers a multicast (a range-cast when halfOpen)
// before initiation. eligible is the online in-range population at
// initiation.
func (c *Collector) StartMulticast(id MsgID, target Target, halfOpen bool, eligible int, sentAt time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.multicasts[id] = &MulticastRecord{
		ID:        id,
		Target:    target,
		HalfOpen:  halfOpen,
		Eligible:  eligible,
		Delivered: make(map[string]time.Duration, eligible),
		SentAt:    sentAt,
	}
}

// Anycast returns a copy of the record for id, if registered.
func (c *Collector) Anycast(id MsgID) (AnycastRecord, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	r, ok := c.anycasts[id]
	if !ok {
		return AnycastRecord{}, false
	}
	return *r, true
}

// Multicast returns a copy of the record for id, if registered.
func (c *Collector) Multicast(id MsgID) (MulticastRecord, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	r, ok := c.multicasts[id]
	if !ok {
		return MulticastRecord{}, false
	}
	cp := *r
	cp.Delivered = maps.Clone(r.Delivered)
	return cp, true
}

// ReadMulticast calls read with id's record in place, under the
// collector lock, and reports whether id is registered: no clone of the
// delivered set. read must neither keep the record nor call back in.
func (c *Collector) ReadMulticast(id MsgID, read func(*MulticastRecord)) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	r, ok := c.multicasts[id]
	if ok {
		read(r)
	}
	return ok
}

// Aggregate returns a copy of the record for id, if registered.
func (c *Collector) Aggregate(id MsgID) (AggregateRecord, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	r, ok := c.aggregates[id]
	if !ok {
		return AggregateRecord{}, false
	}
	cp := *r
	cp.Instances = slices.Clone(r.Instances)
	return cp, true
}

// anycastDelivered records the terminal delivered state (first success
// wins; later duplicates are ignored).
func (c *Collector) anycastDelivered(id MsgID, hops int, latency time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	r, ok := c.anycasts[id]
	if !ok || r.Outcome != OutcomePending {
		return
	}
	r.Outcome = OutcomeDelivered
	r.Hops = hops
	r.Latency = latency
	c.ins.anycastDelivered.Inc()
	c.ins.anycastHops.Observe(float64(hops))
	c.ins.anycastLatencyMs.Observe(float64(latency) / float64(time.Millisecond))
}

// anycastFailed records a terminal failure if the operation is still
// pending. An anycast that already succeeded stays delivered.
func (c *Collector) anycastFailed(id MsgID, outcome AnycastOutcome) {
	c.mu.Lock()
	defer c.mu.Unlock()
	r, ok := c.anycasts[id]
	if !ok || r.Outcome != OutcomePending {
		return
	}
	r.Outcome = outcome
	switch outcome {
	case OutcomeTTLExpired:
		c.ins.anycastTTLExpired.Inc()
	case OutcomeRetryExpired:
		c.ins.anycastRetryExpired.Inc()
	}
}

// multicastEntered flags stage-one success.
func (c *Collector) multicastEntered(id MsgID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if r, ok := c.multicasts[id]; ok {
		r.EnteredRange = true
	}
}

// StartAggregate registers an aggregation before initiation. eligible
// and truth are the experiment-supplied ground truth (truth may be
// NaN). An empty band resolves at once, exactly, to the empty aggregate.
func (c *Collector) StartAggregate(id MsgID, op agg.Op, band Band, eligible int, truth float64, sentAt time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	r := &AggregateRecord{
		ID:       id,
		Op:       op,
		Band:     band,
		Eligible: eligible,
		Truth:    truth,
		SentAt:   sentAt,
	}
	if band.Empty() {
		r.Done, r.CompletedAt = true, sentAt
	}
	c.aggregates[id] = r
}

// AggCounters returns the aggregation-defense counters:
// rejectedPartials — merged partials dropped by the PDF sanity checks;
// forgeryRejected — AggResultMsgs refused by token/sender binding;
// forgeryAccepted — results accepted without a verifiable binding
// (zero unless the binding regresses; scenario-asserted).
func (c *Collector) AggCounters() (rejectedPartials, forgeryRejected, forgeryAccepted int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.aggRejectedPartials, c.aggForgeryRejected, c.aggForgeryAccepted
}

// addAggInstance registers one redundant tree instance under a logical
// aggregation (primary is the id StartAggregate was called with).
func (c *Collector) addAggInstance(primary, instance MsgID, token uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	r, ok := c.aggregates[primary]
	if !ok {
		return
	}
	c.aggOf[instance] = aggSlot{r, len(r.Instances)}
	r.Instances = append(r.Instances, AggInstance{ID: instance, Token: token})
}

// aggregateBand returns the band of the logical aggregation tree
// instance belongs to, for the origin's vetting of a root's result.
func (c *Collector) aggregateBand(instance MsgID) (Band, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	s, ok := c.aggOf[instance]
	if !ok {
		return Band{}, false
	}
	return s.rec.Band, true
}

// aggregateEntered flags stage-one success of one tree instance and
// records the entry node that became its root — the identity result
// binding checks senders against.
func (c *Collector) aggregateEntered(instance MsgID, by ids.NodeID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sawEntry = true
	s, ok := c.aggOf[instance]
	if !ok {
		return
	}
	s.rec.EnteredRange = true
	if in := &s.rec.Instances[s.i]; in.EnteredBy.IsNil() {
		in.EnteredBy = by
	}
}

// aggregateResult accepts or rejects one tree instance's result.
// Acceptance requires the echoed token to match the origin-minted one
// and, when the instance's root is on record, the transport-level
// sender to be that root; anything else is a forgery (or a mangled
// echo) and only bumps the rejection counter. First result per
// instance wins; the logical operation resolves when every instance
// returned or the origin's deadline fires (aggregateFinalize).
func (c *Collector) aggregateResult(instance MsgID, from ids.NodeID, token uint64, p agg.Partial, at time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	s, ok := c.aggOf[instance]
	if !ok {
		return
	}
	r, slot := s.rec, &s.rec.Instances[s.i]
	if slot.Done {
		return
	}
	if token != slot.Token || !slot.EnteredBy.IsNil() && !from.IsNil() && from != slot.EnteredBy {
		c.aggForgeryRejected++
		c.ins.aggForgeryRejected.Inc()
		return
	}
	// Tripwire: in a shared-collector deployment (sawEntry) a networked
	// result accepted before its root was on record means the sender
	// check could not run — the window a racer would exploit. Genuine
	// roots record entry synchronously before emitting a result, so
	// this stays zero; the byzantine scenario pins
	// agg_forgery_accepted == 0 on it.
	if c.sawEntry && slot.EnteredBy.IsNil() && !from.IsNil() {
		c.aggForgeryAccepted++
		c.ins.aggForgeryAccepted.Inc()
	}
	slot.Done = true
	slot.Result = p
	slot.CompletedAt = at
	c.ins.aggResults.Inc()
	for i := range r.Instances {
		if !r.Instances[i].Done {
			return
		}
	}
	c.finalizeLocked(r, at)
}

// aggAgree reports whether an instance value agrees with the
// cross-tree median within tolerance: 10% relative, floored at an
// absolute 0.1 (availability-scale values live in [0,1]).
func aggAgree(v, median float64) bool {
	tol := math.Max(0.1, 0.1*math.Abs(median))
	return math.Abs(v-median) <= tol
}

// aggregateFinalize resolves a logical aggregation by cross-tree
// agreement: the accepted result is the returned instance whose value
// sits closest to the median of all returned values, and the fraction
// of returned instances outside the agreement tolerance is recorded as
// Divergence. With nothing returned the operation stays pending, as a
// timeout; idempotent once resolved.
func (c *Collector) aggregateFinalize(primary MsgID, at time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if r, ok := c.aggregates[primary]; ok {
		c.finalizeLocked(r, at)
	}
}

// finalizeLocked is aggregateFinalize of record r with the lock already
// held (aggregateResult resolves inline when the last instance returns).
func (c *Collector) finalizeLocked(r *AggregateRecord, at time.Duration) {
	if r.Done {
		return
	}
	done := make([]*AggInstance, 0, len(r.Instances))
	for i := range r.Instances {
		if r.Instances[i].Done {
			done = append(done, &r.Instances[i])
		}
	}
	if len(done) == 0 {
		return
	}
	vals := make([]float64, 0, len(done))
	for _, in := range done {
		if v := in.Result.Value(r.Op); !math.IsNaN(v) {
			vals = append(vals, v)
		}
	}
	rep := done[0]
	if len(vals) > 0 {
		sort.Float64s(vals)
		median := vals[len(vals)/2]
		disagree := 0
		best := math.Inf(1)
		for _, in := range done {
			v := in.Result.Value(r.Op)
			if math.IsNaN(v) || !aggAgree(v, median) {
				disagree++
				continue
			}
			if d := math.Abs(v - median); d < best {
				best = d
				rep = in
			}
		}
		r.Divergence = float64(disagree) / float64(len(done))
	}
	r.Done = true
	r.Result = rep.Result
	r.CompletedAt = at
}

// aggregatePartialRejected counts a merged partial dropped by the PDF
// sanity checks somewhere in a tree (instance may belong to another
// origin's operation; the counter is collector-wide).
// reason names the check that fired (partialSuspect) and labels the
// counter, whether or not an auditor is listening.
func (c *Collector) aggregatePartialRejected(instance MsgID, reason string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.aggRejectedPartials++
	// A reason outside AggRejectReasons, or any reason before Instrument,
	// finds a nil counter, which no-ops.
	c.ins.aggRejectedPartials[reason].Inc()
}

// multicastDelivered records a first delivery at node, in range or
// spam, at dissemination depth. A range-cast bumps the ops_rangecast_*
// instruments, a multicast the ops_multicast_* ones.
func (c *Collector) multicastDelivered(id MsgID, node string, at time.Duration, inRange bool, depth int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	r, ok := c.multicasts[id]
	if !ok {
		return
	}
	if !inRange {
		r.Spam++
		if r.HalfOpen {
			c.ins.rangecastSpam.Inc()
		} else {
			c.ins.multicastSpam.Inc()
		}
		return
	}
	if _, seen := r.Delivered[node]; seen {
		return
	}
	r.Delivered[node] = at
	if at > r.LastDelivery {
		r.LastDelivery = at
	}
	if depth > r.MaxDepth {
		r.MaxDepth = depth
	}
	if r.HalfOpen {
		c.ins.rangecastDelivered.Inc()
		c.ins.rangecastDepth.Observe(float64(depth))
	} else {
		c.ins.multicastDelivered.Inc()
	}
}
