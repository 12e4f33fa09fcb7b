package ops

import (
	"fmt"
	"math"
	"sort"
	"time"

	"avmem/internal/agg"
	"avmem/internal/core"
	"avmem/internal/ids"
	"avmem/internal/obs"
)

// Env is the host environment a Router runs in. The simulator and the
// live runtime both implement it, so the operation logic is written
// once and executed in both worlds.
type Env interface {
	// Now returns the current (virtual or wall-clock) time.
	Now() time.Duration
	// After schedules fn after delay d.
	After(d time.Duration, fn func())
	// RandFloat returns a uniform float in [0,1) (simulated annealing).
	RandFloat() float64
	// Send delivers msg to the target with one hop latency, best effort.
	// The address may carry the target's host-index memo (ids.Addr); an
	// Env that cannot use it ignores it.
	Send(to ids.Addr, msg any)
	// SendCall is Send plus an acknowledgment: onResult(true) after the
	// target processed the message, onResult(false) when it could not
	// be reached (retried-greedy forwarding relies on this).
	SendCall(to ids.Addr, msg any, onResult func(ok bool))
	// SendNack is SendCall for a caller that acts only on failure: onNack
	// fires when SendCall's onResult(false) would, and a delivered
	// message reports nothing — no success verdict is queued that nobody
	// reads (the aggregation fan-out relies on this).
	SendNack(to ids.Addr, msg any, onNack func())
	// Online reports whether this node itself is currently online.
	Online() bool
}

// Auditor is the receiving-side audit seam (internal/audit implements
// it). The router consults it on every inbound operation message and
// excludes blacklisted peers from forwarding and dissemination, so
// audited-out nodes stop receiving management traffic.
type Auditor interface {
	// ObserveInbound audits one delivered message; false means the
	// sender is blacklisted and the message must be dropped.
	ObserveInbound(from ids.Addr, msg any) bool
	// Blocked reports whether the peer has been audited out.
	Blocked(peer ids.Addr) bool
}

// maxSeen bounds the duplicate-suppression set; operations are
// short-lived so a full reset on overflow is harmless.
const maxSeen = 1 << 14

// Router executes management operations at one node: it initiates
// anycasts, multicasts and aggregations, forwards in-flight messages
// according to their policy, and reports outcomes into a shared
// Collector.
type Router struct {
	mem *core.Membership
	env Env
	col *Collector
	// verifyInbound enables the §4.1 in-neighbor check on every
	// received operation message.
	verifyInbound bool
	// auditor, when non-nil, audits inbound messages and supplies the
	// blacklist that forwarding and dissemination honor.
	auditor Auditor
	// otrace, when non-nil, records causal op spans (trace.go).
	otrace   *obs.Tracer
	rejected int
	seq      uint64
	// seen is the duplicate-suppression set; front is a direct-mapped
	// cache (slot Seq%4) of ids known to be in it. A flood delivers the
	// same id once per in-band in-neighbor, back to back, so nearly every
	// duplicate is answered by one compare and never reaches the map.
	seen       map[MsgID]bool
	front      [seenFront]MsgID
	gossipSent map[MsgID]map[ids.NodeID]bool
	// free recycles candidate buffers across anycast forwards. A buffer
	// is owned by one in-flight attempt chain until the operation hits a
	// terminal state or its SendCall acknowledges — the failure callback
	// fires asynchronously and re-reads the list, so the buffer cannot
	// be shared with concurrent forwards.
	free [][]core.Neighbor
	// byDist is kept on the Router so sort.Sort receives an existing
	// pointer and candidate ordering allocates nothing.
	byDist distanceSorter
	// orders memoizes the dissemination orders (order.go), allocated on
	// the first flood this node relays — most routers of a large world
	// never see one.
	orders *orderMemo
	// stats is where the flood path counts its own work (FloodStats).
	stats *FloodStats
	// claimVal/claimAt/claimSet memoize the availability claim stamped
	// on outbound messages: a fresh monitor self-query per claimCache
	// window instead of per forwarded message (monitor estimates move
	// at epoch granularity, far slower than the cache expires).
	claimVal float64
	claimAt  time.Duration
	claimSet bool
	// station is the in-overlay aggregation state machine (per-hop
	// partial combining, duplicate suppression, convergence detection);
	// aggValue supplies this node's contribution to aggregations.
	station  *agg.Station[MsgID]
	aggValue func() float64
	// bandCensus, when non-nil, enables the PDF sanity checks: merged
	// child partials whose contributor count exceeds the band's expected
	// census (with slack) — or, when valueChecks is set, whose value
	// moments leave the band hull (with tolerance) — are dropped and
	// reported to the auditor as soft evidence.
	bandCensus  func(lo, hi float64) float64
	valueChecks bool
	// declines holds the boxed decline (declineMsg) of recent trees,
	// direct-mapped by id.Seq; allocated on the first decline.
	declines *[declineSlots]any
	// aggChecks remembers the band of every aggregation this node is a
	// tree member of, so child replies can be sanity-checked (the reply
	// itself carries no band). Entries die with the station's pending op.
	aggChecks map[MsgID]Band
}

// AggPartialAuditor is the optional seam through which the router
// reports PDF-sanity violations on merged partials: when the
// configured Auditor also implements it (internal/audit does), each
// dropped partial becomes decaying soft evidence against its sender,
// feeding the suspicion/eviction state machine.
type AggPartialAuditor interface {
	SuspectAggPartial(from ids.Addr, reason string)
}

// claimCache bounds the claim memo's staleness.
const claimCache = time.Minute

// selfClaim returns the availability claim for outbound stamps,
// re-querying the monitor at most once per claimCache window.
func (r *Router) selfClaim() float64 {
	now := r.env.Now()
	if !r.claimSet || now-r.claimAt > claimCache {
		r.claimVal = r.mem.SelfClaim()
		r.claimAt = now
		r.claimSet = true
	}
	return r.claimVal
}

// distanceSorter orders candidates by availability distance to the
// target, ties broken by ID (the greedy metric).
type distanceSorter struct {
	target Target
	nbs    []core.Neighbor
}

func (s *distanceSorter) Len() int      { return len(s.nbs) }
func (s *distanceSorter) Swap(i, j int) { s.nbs[i], s.nbs[j] = s.nbs[j], s.nbs[i] }
func (s *distanceSorter) Less(i, j int) bool {
	di := s.target.Distance(s.nbs[i].Availability)
	dj := s.target.Distance(s.nbs[j].Availability)
	if di != dj {
		return di < dj
	}
	return s.nbs[i].ID < s.nbs[j].ID
}

// acquireCandidates pops a recycled candidate buffer, or allocates one
// sized for the current neighbor list.
func (r *Router) acquireCandidates(capHint int) []core.Neighbor {
	if n := len(r.free); n > 0 {
		buf := r.free[n-1]
		r.free[n-1] = nil
		r.free = r.free[:n-1]
		return buf[:0]
	}
	return make([]core.Neighbor, 0, capHint)
}

// releaseCandidates returns a buffer to the pool once no in-flight
// callback can read it anymore.
func (r *Router) releaseCandidates(buf []core.Neighbor) {
	if cap(buf) == 0 {
		return
	}
	r.free = append(r.free, buf[:0])
}

// RouterConfig assembles a Router.
type RouterConfig struct {
	Membership *core.Membership
	Env        Env
	Collector  *Collector
	// VerifyInbound drops operation messages whose sender fails the
	// consistent in-neighbor predicate check.
	VerifyInbound bool
	// Auditor optionally audits inbound messages and blacklists
	// misbehaving peers (internal/audit).
	Auditor Auditor
	// OpTrace, when non-nil, records a causal span per operation step
	// this router initiates or processes (trace.go). Deployments share
	// one tracer fleet-wide.
	OpTrace *obs.Tracer
	// Agg tunes the aggregation wave timing (zero fields take the agg
	// defaults: 1s waves, depth 8).
	Agg agg.Params
	// AggValue supplies this node's contribution to aggregation
	// operations. Nil aggregates the node's own availability claim —
	// the availability-census workload; deployments can bind any local
	// gauge (queue depth, free disk, version number) instead.
	AggValue func() float64
	// BandCensus, when non-nil, returns the deployment's expected
	// online population inside the half-open availability band [lo, hi)
	// — N* × the availability PDF's interval mass — and arms the PDF
	// sanity checks on merged aggregation partials. Value-moment checks
	// (min/max/avg inside the band hull) additionally require the
	// default AggValue, since only then are contributions availability
	// claims.
	BandCensus func(lo, hi float64) float64
	// Stats, when non-nil, is where the router counts its flood-path work
	// instead of in a struct of its own: a single-threaded deployment
	// shares one across its routers and reads the totals in one load.
	Stats *FloodStats
}

// FloodStats counts the work of the flood path in plain fields,
// published as metrics by whoever owns the deployment.
type FloodStats struct {
	SeenChecks    int64 // duplicate-suppression lookups (markSeen)
	SeenFrontHits int64 // ... answered by the front cache, no map probe
	OrderRequests int64 // hash orders asked for by a dissemination hop
	OrderSorts    int64 // ... that had to be sorted (memo miss or stale)
}

// Add adds o's counts to s.
func (s *FloodStats) Add(o FloodStats) {
	s.SeenChecks += o.SeenChecks
	s.SeenFrontHits += o.SeenFrontHits
	s.OrderRequests += o.OrderRequests
	s.OrderSorts += o.OrderSorts
}

// FloodStats returns the counters so far (RouterConfig.Stats's when set).
func (r *Router) FloodStats() FloodStats { return *r.stats }

// NewRouter validates and builds a Router.
func NewRouter(cfg RouterConfig) (*Router, error) {
	if cfg.Membership == nil {
		return nil, fmt.Errorf("ops: RouterConfig.Membership is required")
	}
	if cfg.Env == nil {
		return nil, fmt.Errorf("ops: RouterConfig.Env is required")
	}
	if cfg.Collector == nil {
		return nil, fmt.Errorf("ops: RouterConfig.Collector is required")
	}
	station, err := agg.NewStation[MsgID](cfg.Agg, cfg.Env.After)
	if err != nil {
		return nil, err
	}
	r := &Router{
		mem:           cfg.Membership,
		env:           cfg.Env,
		col:           cfg.Collector,
		verifyInbound: cfg.VerifyInbound,
		auditor:       cfg.Auditor,
		otrace:        cfg.OpTrace,
		station:       station,
		aggValue:      cfg.AggValue,
		bandCensus:    cfg.BandCensus,
		valueChecks:   cfg.AggValue == nil,
		stats:         cfg.Stats,
	}
	if r.stats == nil {
		r.stats = new(FloodStats)
	}
	if r.aggValue == nil {
		r.aggValue = r.selfClaim
	}
	return r, nil
}

// Self returns the owning node's identifier.
func (r *Router) Self() ids.NodeID { return r.mem.Self() }

// Rejected returns how many inbound messages failed verification.
func (r *Router) Rejected() int { return r.rejected }

// nextID mints a fresh operation identifier.
func (r *Router) nextID() MsgID {
	r.seq++
	return MsgID{Origin: r.mem.Self(), Seq: r.seq}
}

// AnycastOptions parameterizes an anycast initiation.
type AnycastOptions struct {
	Policy Policy
	Flavor core.Flavor
	// TTL in virtual hops (paper default 6).
	TTL int
	// Retry is the retry budget k for RetriedGreedy (ignored otherwise).
	Retry int
}

// DefaultAnycastOptions returns the paper's defaults: greedy HS+VS,
// TTL 6.
func DefaultAnycastOptions() AnycastOptions {
	return AnycastOptions{Policy: Greedy, Flavor: core.HSVS, TTL: 6}
}

// validFlavor checks one of the three sliver flavors was chosen; what
// names the option in the error.
func validFlavor(f core.Flavor, what string) error {
	switch f {
	case core.HSOnly, core.VSOnly, core.HSVS:
		return nil
	default:
		return fmt.Errorf("ops: invalid %sflavor %v", what, f)
	}
}

func (o AnycastOptions) validate() error {
	switch o.Policy {
	case Greedy, RetriedGreedy, Annealing:
	default:
		return fmt.Errorf("ops: invalid policy %v", o.Policy)
	}
	if err := validFlavor(o.Flavor, ""); err != nil {
		return err
	}
	if o.TTL <= 0 {
		return fmt.Errorf("ops: TTL must be positive, got %d", o.TTL)
	}
	if o.Policy == RetriedGreedy && o.Retry <= 0 {
		return fmt.Errorf("ops: RetriedGreedy needs a positive retry budget")
	}
	return nil
}

// Anycast initiates a {threshold,range}-anycast toward target and
// returns its operation ID; the outcome materializes in the Collector.
func (r *Router) Anycast(target Target, opts AnycastOptions) (MsgID, error) {
	if err := target.Validate(); err != nil {
		return MsgID{}, err
	}
	if err := opts.validate(); err != nil {
		return MsgID{}, err
	}
	id := r.nextID()
	if r.otrace != nil {
		r.span("anycast", "init", id, 0, ids.Nil)
	}
	r.col.StartAnycast(id, target)
	msg := AnycastMsg{
		ID:          id,
		Target:      target,
		Policy:      opts.Policy,
		Flavor:      opts.Flavor,
		TTL:         opts.TTL,
		Retry:       opts.Retry,
		SentAt:      r.env.Now(),
		SenderAvail: r.selfClaim(),
	}
	r.handleAnycast(ids.Addr{}, msg)
	return id, nil
}

// MulticastOptions parameterizes a multicast initiation.
type MulticastOptions struct {
	// Anycast configures stage one (entering the range).
	Anycast AnycastOptions
	// Mode selects flooding or gossip for stage two.
	Mode Mode
	// Flavor selects the sliver lists used for dissemination.
	Flavor core.Flavor
	// Fanout and Rounds parameterize gossip (fanout×Ng ≈ log N*).
	Fanout int
	Rounds int
	// Period is the gossip period (paper: 1 s).
	Period time.Duration
	// HalfOpen addresses the half-open band [Lo, Hi) instead of the
	// closed target: a range-cast. An empty band completes at once,
	// with nothing delivered.
	HalfOpen bool
	// Payload is delivered to every node in the target.
	Payload string
	// Eligible is the online in-range population at initiation, the
	// denominator of reliability and spam (supplied by the caller,
	// which in experiments knows ground truth).
	Eligible int
}

// DefaultMulticastOptions returns the paper's defaults: greedy HS+VS
// entry, flooding dissemination over HS+VS.
func DefaultMulticastOptions() MulticastOptions {
	return MulticastOptions{
		Anycast: DefaultAnycastOptions(),
		Mode:    Flood,
		Flavor:  core.HSVS,
	}
}

func (o MulticastOptions) validate() error {
	if err := o.Anycast.validate(); err != nil {
		return err
	}
	if err := validFlavor(o.Flavor, "multicast "); err != nil {
		return err
	}
	switch o.Mode {
	case Flood:
	case Gossip:
		if o.Fanout <= 0 || o.Rounds <= 0 || o.Period <= 0 {
			return fmt.Errorf("ops: gossip needs positive fanout/rounds/period, got %d/%d/%v",
				o.Fanout, o.Rounds, o.Period)
		}
	default:
		return fmt.Errorf("ops: invalid mode %v", o.Mode)
	}
	return nil
}

// Multicast initiates a {threshold,range}-multicast toward target and
// returns its operation ID. With opts.HalfOpen it is a range-cast: the
// payload goes to every node in the half-open band [Lo, Hi). Stage one is
// an anycast toward the closed target; stage two floods or gossips along
// target-filtered sliver lists with per-node duplicate suppression.
func (r *Router) Multicast(target Target, opts MulticastOptions) (MsgID, error) {
	if err := target.Validate(); err != nil {
		return MsgID{}, err
	}
	if err := opts.validate(); err != nil {
		return MsgID{}, err
	}
	id := r.nextID()
	if r.otrace != nil {
		r.span(multicastKind(opts.HalfOpen), "init", id, 0, ids.Nil)
	}
	now := r.env.Now()
	r.col.StartMulticast(id, target, opts.HalfOpen, opts.Eligible, now)
	if opts.HalfOpen && (Band{Lo: target.Lo, Hi: target.Hi}).Empty() {
		// Nothing is addressable: complete vacuously instead of walking
		// the overlay until the TTL dies.
		return id, nil
	}
	spec := MulticastSpec{
		Mode:     opts.Mode,
		Flavor:   opts.Flavor,
		Fanout:   opts.Fanout,
		Rounds:   opts.Rounds,
		Period:   opts.Period,
		HalfOpen: opts.HalfOpen,
		Payload:  opts.Payload,
	}
	msg := AnycastMsg{
		ID:          id,
		Target:      target,
		Policy:      opts.Anycast.Policy,
		Flavor:      opts.Anycast.Flavor,
		TTL:         opts.Anycast.TTL,
		Retry:       opts.Anycast.Retry,
		SentAt:      now,
		SenderAvail: r.selfClaim(),
		Multicast:   &spec,
	}
	r.handleAnycast(ids.Addr{}, msg)
	return id, nil
}

// AggregateOptions parameterizes an aggregation initiation.
type AggregateOptions struct {
	// Anycast configures stage one (entering the band).
	Anycast AnycastOptions
	// Flavor selects the sliver lists the tree grows along.
	Flavor core.Flavor
	// Eligible and Truth are the experiment-supplied ground truth: the
	// online in-band population and the true aggregate at initiation
	// (Truth may be NaN outside a harness).
	Eligible int
	Truth    float64
	// Redundancy launches this many independent tree instances (0 and 1
	// both mean a single tree). Each instance enters the band through a
	// distinct sub-interval of its hull and grows along a differently
	// salted sliver ordering; the origin resolves the operation by
	// cross-tree agreement (median within tolerance), recording
	// disagreement as the record's Divergence.
	Redundancy int
}

// MaxAggRedundancy bounds the redundancy degree; beyond a handful of
// trees the band's hull slices thinner than the population supports.
const MaxAggRedundancy = 8

// DefaultAggregateOptions returns greedy HS+VS entry and an HS+VS
// tree, with no ground truth recorded.
func DefaultAggregateOptions() AggregateOptions {
	return AggregateOptions{Anycast: DefaultAnycastOptions(), Flavor: core.HSVS, Truth: math.NaN()}
}

func (o AggregateOptions) validate() error {
	if err := o.Anycast.validate(); err != nil {
		return err
	}
	if o.Redundancy < 0 || o.Redundancy > MaxAggRedundancy {
		return fmt.Errorf("ops: redundancy must be in [0,%d], got %d", MaxAggRedundancy, o.Redundancy)
	}
	return validFlavor(o.Flavor, "aggregate ")
}

// Aggregate initiates an in-overlay aggregation: op over the local
// values of every node whose availability lies in [lo, hi). The first
// in-band node becomes the root of an implicit spanning tree grown
// along band-filtered sliver lists; partials combine per hop on the
// way back up, and the root returns the result to this node, bound by
// an origin-minted token. With opts.Redundancy > 1 the origin grows
// that many independently rooted, differently salted trees and
// resolves by cross-tree agreement. The outcome materializes in the
// Collector's AggregateRecord.
func (r *Router) Aggregate(op agg.Op, lo, hi float64, opts AggregateOptions) (MsgID, error) {
	band := Band{Lo: lo, Hi: hi}
	if err := band.Validate(); err != nil {
		return MsgID{}, err
	}
	if err := op.Validate(); err != nil {
		return MsgID{}, err
	}
	if err := opts.validate(); err != nil {
		return MsgID{}, err
	}
	id := r.nextID()
	if r.otrace != nil {
		r.span("aggregate", "init", id, 0, ids.Nil)
	}
	now := r.env.Now()
	r.col.StartAggregate(id, op, band, opts.Eligible, opts.Truth, now)
	if band.Empty() {
		// The empty band aggregates to the empty aggregate, exactly.
		r.col.aggregateDone(id, agg.Partial{}, now)
		return id, nil
	}
	k := opts.Redundancy
	if k <= 0 {
		k = 1
	}
	hull := band.Target()
	insts := make([]MsgID, 0, k)
	for j := 0; j < k; j++ {
		inst := id
		if j > 0 {
			inst = r.nextID()
		}
		insts = append(insts, inst)
		token := r.mintToken()
		r.col.addAggInstance(id, inst, token)
		// Arm the origin-side PDF sanity check: a root's claimed result
		// is vetted against the band exactly like a child partial.
		r.trackAggCheck(inst, band)
		spec := AggregateSpec{Op: op, Band: band, Flavor: opts.Flavor, Token: token, Salt: aggSalt(j)}
		msg := AnycastMsg{
			ID:          inst,
			Target:      subTarget(hull, j, k),
			Policy:      opts.Anycast.Policy,
			Flavor:      opts.Anycast.Flavor,
			TTL:         opts.Anycast.TTL,
			Retry:       opts.Anycast.Retry,
			SentAt:      now,
			SenderAvail: r.selfClaim(),
			Aggregate:   &spec,
		}
		r.handleAnycast(ids.Addr{}, msg)
	}
	// The origin's resolution deadline: by then every tree has hit its
	// own wave backstop and returned or never will. Deterministic in
	// virtual time, so redundant runs stay bit-reproducible per seed.
	p := r.station.Params()
	r.env.After(time.Duration(p.MaxDepth+4)*p.Wave, func() {
		for _, inst := range insts {
			delete(r.aggChecks, inst)
		}
		r.col.aggregateFinalize(id, r.env.Now())
	})
	return id, nil
}

// mintToken draws a nonzero binding token from the node's RNG stream.
// Tree members never see it (forwardAgg strips it from AggMsg copies),
// so a fabricated AggResultMsg cannot echo it.
func (r *Router) mintToken() uint64 {
	return math.Float64bits(r.env.RandFloat()) | 1
}

// aggSalt derives the sliver-ordering salt of tree instance j.
// Instance 0 keeps the legacy unsalted ordering, so single-tree
// aggregations are unchanged.
func aggSalt(j int) uint64 { return uint64(j) * 0x9E3779B97F4A7C15 }

// subTarget slices the band hull into k equal entry sub-intervals so
// each redundant tree anycasts toward — and roots at — a different
// part of the band.
func subTarget(hull Target, j, k int) Target {
	w := (hull.Hi - hull.Lo) / float64(k)
	if k <= 1 || w <= 0 {
		return hull
	}
	lo := hull.Lo + float64(j)*w
	hi := lo + w
	if j == k-1 {
		hi = hull.Hi
	}
	return Target{Lo: lo, Hi: hi}
}

// HandleMessage is the network entry point: the simulator and live
// runtime register it as the node's message handler.
func (r *Router) HandleMessage(from ids.Addr, msg any) {
	// The audit layer sees every message first: traffic from peers this
	// node has evicted is discarded, delivery notices included.
	if r.auditor != nil && !r.auditor.ObserveInbound(from, msg) {
		r.rejected++
		return
	}
	if r.otrace != nil {
		r.traceInbound(from, msg)
	}
	// Delivery notices bypass the in-neighbor check: the delivering
	// node is rarely the origin's neighbor. They are harmless to spoof —
	// the collector only accepts verdicts for operations this node
	// registered, and first-wins semantics keep them idempotent.
	if m, ok := msg.(DeliveredMsg); ok {
		r.col.anycastDelivered(m.ID, m.Hops, r.env.Now()-m.SentAt)
		return
	}
	// AggResultMsg is origin-addressed like DeliveredMsg and bypasses
	// the in-neighbor check for the same reason: the tree root is
	// rarely the origin's neighbor. Unlike DeliveredMsg it is NOT
	// harmless to spoof, so acceptance is bound: the collector takes a
	// result only when its token echoes the origin-minted binding token
	// of that tree instance and the transport-level sender matches the
	// recorded root — a fabricated result from a tree member (which
	// never saw the token) is rejected and counted (DESIGN.md §13).
	if m, ok := msg.(AggResultMsg); ok {
		// The origin vets the root's claimed result against the band's
		// availability distribution exactly as a parent vets a child
		// partial: a root that lies in its own result (rather than in a
		// relayed partial) leaves the band hull and is dropped here,
		// reported to the auditor, and its tree instance stays pending —
		// the cross-tree median then resolves from the honest trees.
		if band, tracked := r.aggChecks[m.ID]; tracked {
			if reason := r.partialSuspect(band, m.Result); reason != "" {
				r.col.aggregatePartialRejected(m.ID, reason)
				if ap, ok := r.auditor.(AggPartialAuditor); ok {
					ap.SuspectAggPartial(from, reason)
				}
				return
			}
		}
		r.col.aggregateResult(m.ID, from.ID(), m.Token, m.Result, r.env.Now())
		return
	}
	if r.verifyInbound && !from.IsNil() && !r.mem.VerifyInbound(from.ID()) {
		r.rejected++
		return
	}
	switch m := msg.(type) {
	case AnycastMsg:
		r.handleAnycast(from, m)
	case MulticastMsg:
		r.disseminate(&m)
	case AggMsg:
		r.handleAggRequest(from, m)
	case AggReplyMsg:
		r.handleAggReply(from, m)
	default:
		// Unknown payloads are dropped; the overlay carries only
		// operation traffic.
	}
}

// handleAnycast processes an anycast hop at this node (paper §3.2.I):
// terminate if inside the target, otherwise forward by policy.
func (r *Router) handleAnycast(from ids.Addr, m AnycastMsg) {
	self := r.mem.SelfInfo()
	if m.Target.Contains(self.Availability) {
		switch {
		case m.Multicast != nil:
			r.col.multicastEntered(m.ID)
			r.disseminate(&MulticastMsg{ID: m.ID, Target: m.Target, Spec: *m.Multicast, SentAt: m.SentAt})
		case m.Aggregate != nil:
			r.rootAggregate(m)
		default:
			if r.otrace != nil {
				r.span("anycast", "deliver", m.ID, m.Hops, from.ID())
			}
			r.col.anycastDelivered(m.ID, m.Hops, r.env.Now()-m.SentAt)
			if m.ID.Origin != self.ID {
				r.env.Send(m.ID.Origin.Addr(), DeliveredMsg{ID: m.ID, Hops: m.Hops, SentAt: m.SentAt})
			}
		}
		return
	}
	r.forwardAnycast(from, m)
}

// unlimitedBudget marks policies without an explicit retry cap.
const unlimitedBudget = -1

// forwardAnycast picks the next hop by policy and sends with failure
// detection. Transport-level failure of a next hop (offline target) is
// observable — a connection attempt to a dead host fails — so every
// policy fails over to its next choice rather than losing the message.
// RetriedGreedy additionally caps the number of attempts with the
// message's retry budget (paper §3.2.I); Greedy and Annealing stop only
// when the candidate list is exhausted.
func (r *Router) forwardAnycast(from ids.Addr, m AnycastMsg) {
	if m.TTL <= 0 {
		r.col.anycastFailed(m.ID, OutcomeTTLExpired)
		return
	}
	candidates := r.candidates(from.ID(), m.Flavor, m.Target)
	next := m
	next.TTL--
	next.Hops++
	next.SenderAvail = r.selfClaim()
	budget := unlimitedBudget
	if m.Policy == RetriedGreedy {
		budget = m.Retry
	}
	r.attempt(candidates, next, budget)
}

// attempt sends m to the policy's pick among candidates; on failure the
// pick is removed and the next is attempted, spending one unit of a
// bounded budget per failure. Exhausting either candidates or budget
// fails the operation with OutcomeRetryExpired.
func (r *Router) attempt(candidates []core.Neighbor, m AnycastMsg, budget int) {
	if len(candidates) == 0 || budget == 0 {
		r.col.anycastFailed(m.ID, OutcomeRetryExpired)
		r.releaseCandidates(candidates)
		return
	}
	idx := 0
	if m.Policy == Annealing {
		idx = r.annealIndex(candidates, m)
	}
	choice := candidates[idx]
	if m.Policy == RetriedGreedy {
		m.Retry = budget
	}
	r.env.SendCall(choice.Addr(), m, func(ok bool) {
		if ok {
			r.releaseCandidates(candidates)
			return
		}
		// Failed attempts remove the pick in place — the chain owns the
		// buffer, so compaction preserves greedy order without copying.
		rest := append(candidates[:idx], candidates[idx+1:]...)
		nextBudget := budget
		if budget > 0 {
			nextBudget = budget - 1
		}
		r.attempt(rest, m, nextBudget)
	})
}

// annealIndex implements simulated annealing (paper §3.2.I): traverse
// the neighbor list in greedy order; each candidate is chosen outright
// with probability p = exp(−Δ/ttl), where Δ is the candidate's
// availability distance to the target edge and ttl the remaining
// time-to-live; if no candidate wins its coin flip, fall back to the
// greedy choice.
//
// In-range candidates have Δ = 0, hence p = 1: they are taken as soon
// as the traversal reaches them. Early in a message's life (large ttl)
// even distant candidates have high p, so the walk is exploratory;
// as ttl runs down, p decays and the choice degenerates to greedy —
// the annealing schedule the paper describes.
func (r *Router) annealIndex(candidates []core.Neighbor, m AnycastMsg) int {
	ttl := float64(m.TTL)
	if ttl <= 0 {
		ttl = 1
	}
	for i, nb := range candidates {
		delta := m.Target.Distance(nb.Availability)
		p := math.Exp(-delta / ttl)
		if r.env.RandFloat() < p {
			return i
		}
	}
	return 0
}

// candidates returns the usable neighbors for forwarding, sorted by the
// greedy metric (availability distance to the target, ties by ID). The
// immediate sender is excluded when alternatives exist — a loop-avoidance
// refinement; with only the sender available we still use it rather
// than drop. The result is a pooled buffer filled from the membership's
// cached view; the caller (the attempt chain) owns it until release.
func (r *Router) candidates(from ids.NodeID, flavor core.Flavor, target Target) []core.Neighbor {
	all := r.mem.Neighbors(flavor)
	out := r.acquireCandidates(len(all))
	var sender core.Neighbor
	hasSender := false
	for i := range all {
		if r.auditor != nil && r.auditor.Blocked(all[i].Addr()) {
			continue
		}
		if all[i].ID == from {
			sender = all[i]
			hasSender = true
			continue
		}
		out = append(out, all[i])
	}
	if len(out) == 0 && hasSender {
		out = append(out, sender)
	}
	r.byDist.target = target
	r.byDist.nbs = out
	sort.Sort(&r.byDist)
	r.byDist.nbs = nil
	return out
}

// seenFront is the size of the duplicate-suppression front cache.
const seenFront = 4

// markSeen records id in the duplicate-suppression set, reporting
// whether it was already present. A front slot only ever holds an id
// that is in the set, and never the zero MsgID (no operation carries
// it), so a front hit is a set hit. The set is lazily allocated — most
// routers in a large world never see a dissemination message — and
// reset wholesale, with the front cache and the per-operation gossip
// ledger, when it hits maxSeen.
func (r *Router) markSeen(id MsgID) bool {
	r.stats.SeenChecks++
	slot := &r.front[id.Seq%seenFront]
	if *slot == id && id != (MsgID{}) {
		r.stats.SeenFrontHits++
		return true
	}
	dup := r.seen[id]
	if !dup {
		if len(r.seen) >= maxSeen {
			r.seen = make(map[MsgID]bool, 256)
			r.front = [seenFront]MsgID{}
			r.gossipSent = nil
		} else if r.seen == nil {
			r.seen = make(map[MsgID]bool, 64)
		}
		r.seen[id] = true
	}
	*slot = id
	return dup
}

// disseminate is the stage-two entry of multicasts and range-casts:
// record the local delivery once (duplicate-suppressed by operation id),
// then flood or gossip onward to in-target neighbors if this node itself
// lies inside the target. An out-of-target receiver — reachable only
// through a stale cached availability — consumes spam and does not
// forward, so the message never propagates outside the target's overlay
// neighborhood. The one exception is the entry node (depth 0): a
// range-cast's anycast stops on the band's closed hull, so the entry can
// sit exactly at Hi, outside the band, and it still relays into it. A
// multicast's entry always lies inside its closed target.
func (r *Router) disseminate(m *MulticastMsg) {
	if r.markSeen(m.ID) {
		return
	}

	self := r.mem.SelfInfo()
	inRange := m.contains(self.Availability)
	r.col.multicastDelivered(m.ID, string(self.ID), r.env.Now(), inRange, m.Depth)
	if !inRange && m.Depth > 0 {
		return
	}
	// Onward copies carry this node's own availability claim.
	m.Depth++
	m.SenderAvail = r.selfClaim()
	switch m.Spec.Mode {
	case Gossip:
		r.gossipRounds(*m, m.Spec.Rounds)
	default: // Flood
		// Box the message once: every recipient shares one read-only
		// interface value instead of re-boxing the struct per send.
		var boxed any = *m
		for nb := range r.targets(m.Spec.Flavor, 0, m.contains) {
			r.env.Send(nb.Addr(), boxed)
		}
	}
}

// gossipRounds runs one gossip round now and schedules the remainder.
func (r *Router) gossipRounds(m MulticastMsg, remaining int) {
	if remaining <= 0 {
		return
	}
	if r.env.Online() {
		sent := r.gossipSent[m.ID]
		if sent == nil {
			sent = make(map[ids.NodeID]bool, m.Spec.Fanout*m.Spec.Rounds)
			if r.gossipSent == nil {
				r.gossipSent = make(map[MsgID]map[ids.NodeID]bool, 16)
			}
			r.gossipSent[m.ID] = sent
		}
		// Deterministic iteration through the in-range neighbor list,
		// skipping peers already gossiped to (paper §3.2.II).
		n := 0
		var boxed any = m
		for nb := range r.targets(m.Spec.Flavor, 0, m.contains) {
			if n >= m.Spec.Fanout {
				break
			}
			if sent[nb.ID] {
				continue
			}
			sent[nb.ID] = true
			r.env.Send(nb.Addr(), boxed)
			n++
		}
	}
	r.env.After(m.Spec.Period, func() { r.gossipRounds(m, remaining-1) })
}

// rootAggregate turns the entry node of an aggregation's anycast stage
// into the root of the partial-combining tree. The root contributes
// its own value only when it actually lies inside the half-open band
// (the anycast terminates on the band's closed hull, so a node exactly
// at Hi can become a contribution-free relay root); its finalized
// partial goes straight back to the origin.
func (r *Router) rootAggregate(m AnycastMsg) {
	spec := *m.Aggregate
	self := r.mem.SelfInfo()
	r.col.aggregateEntered(m.ID, self.ID)
	id, sentAt := m.ID, m.SentAt
	opened := r.station.Open(id, 0, r.aggValue(), spec.Band.Contains(self.Availability), func(p agg.Partial) {
		delete(r.aggChecks, id)
		if id.Origin == self.ID {
			r.col.aggregateResult(id, self.ID, spec.Token, p, r.env.Now())
			return
		}
		r.env.Send(id.Origin.Addr(), AggResultMsg{ID: id, Result: p, Token: spec.Token, SentAt: sentAt, SenderAvail: r.selfClaim()})
	})
	if !opened {
		// A retried entry stage can deliver the same anycast to a second
		// in-band node after the first already rooted the tree.
		return
	}
	r.trackAggCheck(id, spec.Band)
	r.station.Expect(id, r.forwardAgg(id, spec, 0, sentAt, ids.Nil))
}

// handleAggRequest processes an aggregation request at this node: join
// the tree under the sender (first copy), or send an accounting
// decline (duplicate copy, or this node lies outside the band).
func (r *Router) handleAggRequest(from ids.Addr, m AggMsg) {
	self := r.mem.SelfInfo()
	if r.station.Seen(m.ID) || !m.Spec.Band.Contains(self.Availability) {
		r.env.Send(from, r.declineMsg(m.ID))
		return
	}
	id, parent := m.ID, from
	r.station.Open(id, m.Depth, r.aggValue(), true, func(p agg.Partial) {
		delete(r.aggChecks, id)
		r.env.Send(parent, AggReplyMsg{ID: id, Partial: p, SenderAvail: r.selfClaim()})
	})
	r.trackAggCheck(id, m.Spec.Band)
	r.station.Expect(id, r.forwardAgg(id, m.Spec, m.Depth, m.SentAt, from.ID()))
}

// declineSlots is how many trees' declines a router keeps boxed.
const declineSlots = 4

// declineMsg returns the boxed accounting decline for tree id. A tree
// member hears the same request from every other in-band neighbor and
// owes each the same answer, while the copies of concurrent trees
// interleave: each tree's box is kept in slot id.Seq%declineSlots and
// shared, like the one boxed request of a flood (sent messages are
// read-only).
func (r *Router) declineMsg(id MsgID) any {
	if r.declines == nil {
		r.declines = new([declineSlots]any)
	}
	claim := r.selfClaim()
	slot := &r.declines[id.Seq%declineSlots]
	if d, ok := (*slot).(AggReplyMsg); !ok || d.ID != id || d.SenderAvail != claim {
		*slot = AggReplyMsg{ID: id, Decline: true, SenderAvail: claim}
	}
	return *slot
}

// trackAggCheck remembers the band of a tree this node just joined,
// arming the PDF sanity checks on its child replies. The finalize
// closure removes the entry, so the map tracks only pending trees.
func (r *Router) trackAggCheck(id MsgID, band Band) {
	if r.bandCensus == nil {
		return
	}
	if r.aggChecks == nil {
		r.aggChecks = make(map[MsgID]Band, 8)
	}
	r.aggChecks[id] = band
}

// forwardAgg grows the tree one level: the request goes to every
// in-band neighbor except the parent, with delivery failures feeding
// straight into convergence accounting (an unreachable child declines
// by transport nack). Returns how many children were addressed.
func (r *Router) forwardAgg(id MsgID, spec AggregateSpec, depth int, sentAt time.Duration, parent ids.NodeID) int {
	if depth >= r.station.Params().MaxDepth {
		return 0
	}
	// The binding token stays between origin, entry path, and root:
	// tree members must never learn it, or any of them could race a
	// fabricated result past the origin's collector.
	next := AggMsg{ID: id, Spec: spec, Depth: depth + 1, SentAt: sentAt, SenderAvail: r.selfClaim()}
	next.Spec.Token = 0
	// One boxed request and one nack callback serve every child; a
	// delivered request reports nothing, since only failure counts here.
	var boxed any = next
	nack := func() { r.station.Decline(id) }
	kids := 0
	for nb := range r.targets(spec.Flavor, spec.Salt, spec.Band.Contains) {
		if nb.ID == parent {
			continue
		}
		r.env.SendNack(nb.Addr(), boxed, nack)
		kids++
	}
	return kids
}

// PDF sanity-check tuning: a merged partial may claim at most
// aggCountSlack × the band's expected census contributors (floored, so
// sparse bands keep headroom), and — when contributions are
// availability claims — value moments may exceed the band hull by at
// most AggValueTol. Honest partials sit far inside both bounds; the
// slack absorbs churn-driven drift between the census estimate and the
// live population.
const (
	aggCountSlack = 3.0
	aggCountFloor = 8.0
	// AggValueTol is exported for the scenario fuzzer, whose oracle has to
	// know how far an honest node's fresh availability claim (what it
	// contributes) may drift from the cached one (what put it in the band)
	// before a parent's hull check fires.
	AggValueTol = 0.1
)

// partialSuspect validates a merged child partial against the
// availability distribution; a non-empty reason means the partial
// claims something the deployment's PDF says cannot be true.
func (r *Router) partialSuspect(band Band, p agg.Partial) string {
	if p.N <= 0 {
		return ""
	}
	expected := r.bandCensus(band.Lo, band.Hi)
	if float64(p.N) > aggCountSlack*math.Max(expected, aggCountFloor) {
		return "agg-count-bounds"
	}
	if !r.valueChecks {
		return ""
	}
	lo := band.Lo - AggValueTol
	hi := math.Min(band.Hi, 1) + AggValueTol
	if p.Min < lo || p.Max > hi {
		return "agg-hull-bounds"
	}
	if avg := p.Sum / float64(p.N); avg < lo || avg > hi {
		return "agg-avg-bounds"
	}
	return ""
}

// handleAggReply folds a child's accounting reply into the pending
// aggregation: a partial carries the child's whole subtree, a decline
// carries nothing but still counts toward convergence. When the PDF
// sanity checks are armed, a partial that contradicts the availability
// distribution is dropped — it still counts as a (contribution-free)
// decline so convergence accounting stays exact — and reported to the
// auditor as decaying soft evidence against the sender.
func (r *Router) handleAggReply(from ids.Addr, m AggReplyMsg) {
	if m.Decline {
		r.station.Decline(m.ID)
		return
	}
	if band, ok := r.aggChecks[m.ID]; ok {
		if reason := r.partialSuspect(band, m.Partial); reason != "" {
			r.col.aggregatePartialRejected(m.ID, reason)
			if ap, ok := r.auditor.(AggPartialAuditor); ok {
				ap.SuspectAggPartial(from, reason)
			}
			r.station.Decline(m.ID)
			return
		}
	}
	r.station.Absorb(m.ID, m.Partial)
}
