// Package audit is AVMEM's in-protocol defense against non-cooperative
// participants: every node runs an Auditor over the messages it
// receives and evicts peers whose behavior provably or persistently
// violates the protocol's verifiable predicates (paper §4.1, extended
// with the detect-and-repair machinery self-stabilizing overlays need).
//
// The Auditor distinguishes two evidence classes:
//
//   - Hard evidence is a provable protocol violation, checkable by the
//     receiver alone from the consistent pair hash and the monitoring
//     service: an availability claim that contradicts the AVMON
//     estimate beyond the configured tolerance, or a shuffle reply in
//     which the responder advertises itself (an honest CYCLON responder
//     samples only from its view, which never contains itself). Hard
//     hits carry enough weight to evict at once by default.
//   - Soft evidence is a failed in-neighbor predicate recheck on a
//     received operation message. Honest pairs fail this check too when
//     their availability views disagree (the paper's Figure-6 regime),
//     so soft hits carry a small weight and decay on every clean
//     observation — the hysteresis that keeps honest false positives
//     out while persistent selfish flooders still accumulate.
//
// Evicted peers land on the observer's blacklist: the membership layer
// drops them from the slivers, the operation router stops forwarding to
// them and discards their traffic, and the node ignores their shuffle
// exchanges — audited-out nodes stop receiving management traffic.
// Deployment harnesses share one Trail across all auditors to measure
// detection latency and false-positive rates.
//
// Architecture: DESIGN.md §10 (adversary & audit subsystem); §13 for
// how the range-cast/aggregation family is audited.
package audit

import (
	"fmt"
	"sort"
	"time"

	"avmem/internal/avmon"
	"avmem/internal/core"
	"avmem/internal/ids"
	"avmem/internal/ops"
	"avmem/internal/shuffle"
)

// Params tunes the suspicion model. The zero value takes the defaults.
type Params struct {
	// ClaimTolerance is the allowed claimed-over-monitored availability
	// excess before a claim counts as a lie (default 0.25: wide enough
	// for refresh-period staleness, offline-gap drift, and the paper's
	// ±0.05 monitor noise). The check is directional — only *inflation*
	// is evidence; a node understating itself harms nobody.
	ClaimTolerance float64
	// ClaimWarmup suppresses claim evidence before this virtual time
	// (default 1h): young monitoring estimates are volatile enough that
	// even honest cached claims drift past any reasonable tolerance.
	ClaimWarmup time.Duration
	// EvictThreshold is the suspicion score at which a peer is evicted
	// (default 3).
	EvictThreshold float64
	// HardWeight is the score added per provable violation (default
	// EvictThreshold: hard evidence evicts at once).
	HardWeight float64
	// SoftWeight is the score added per failed predicate recheck
	// (default 0.2).
	SoftWeight float64
	// Decay is the score subtracted per clean observation, floored at
	// zero (default 0.05) — the downward half of the hysteresis.
	Decay float64
	// RecheckCushion widens the predicate recheck like the §4.1
	// verification cushion (default 0.1).
	RecheckCushion float64
}

func (p *Params) applyDefaults() {
	if p.ClaimTolerance == 0 {
		p.ClaimTolerance = 0.25
	}
	if p.ClaimWarmup == 0 {
		p.ClaimWarmup = time.Hour
	}
	if p.EvictThreshold == 0 {
		p.EvictThreshold = 3
	}
	if p.HardWeight == 0 {
		p.HardWeight = p.EvictThreshold
	}
	if p.SoftWeight == 0 {
		p.SoftWeight = 0.2
	}
	if p.Decay == 0 {
		p.Decay = 0.05
	}
	if p.RecheckCushion == 0 {
		p.RecheckCushion = 0.1
	}
}

func (p Params) validate() error {
	if p.ClaimTolerance < 0 || p.ClaimTolerance > 1 {
		return fmt.Errorf("audit: ClaimTolerance must be in [0,1], got %v", p.ClaimTolerance)
	}
	if p.EvictThreshold <= 0 {
		return fmt.Errorf("audit: EvictThreshold must be positive, got %v", p.EvictThreshold)
	}
	if p.HardWeight <= 0 || p.SoftWeight < 0 || p.Decay < 0 {
		return fmt.Errorf("audit: weights must be non-negative (HardWeight positive), got hard %v soft %v decay %v",
			p.HardWeight, p.SoftWeight, p.Decay)
	}
	if p.RecheckCushion < 0 || p.RecheckCushion > 1 {
		return fmt.Errorf("audit: RecheckCushion must be in [0,1], got %v", p.RecheckCushion)
	}
	return nil
}

// Eviction is one blacklist entry in the deployment-wide Trail.
type Eviction struct {
	Observer ids.NodeID
	Suspect  ids.NodeID
	At       time.Duration
	// Reason names the evidence class that crossed the threshold.
	Reason string
}

// Trail is the deployment-wide eviction registry harnesses share across
// auditors: in a real deployment this information would travel as
// signed accusations; here it is the measurement surface for detection
// latency and false-positive metrics. Trail is not safe for concurrent
// use (each deployment engine is single-threaded on its virtual clock).
type Trail struct {
	evictions []Eviction
	first     map[ids.NodeID]time.Duration
}

// NewTrail creates an empty registry.
func NewTrail() *Trail {
	return &Trail{first: make(map[ids.NodeID]time.Duration, 32)}
}

// record appends one eviction.
func (t *Trail) record(e Eviction) {
	t.evictions = append(t.evictions, e)
	if _, ok := t.first[e.Suspect]; !ok {
		t.first[e.Suspect] = e.At
	}
}

// Evictions returns all recorded evictions in observation order.
func (t *Trail) Evictions() []Eviction { return t.evictions }

// FirstEviction returns the earliest time any observer evicted suspect.
func (t *Trail) FirstEviction(suspect ids.NodeID) (time.Duration, bool) {
	at, ok := t.first[suspect]
	return at, ok
}

// Suspects returns every node evicted by at least one observer, in
// deterministic (sorted) order.
func (t *Trail) Suspects() []ids.NodeID {
	out := make([]ids.NodeID, 0, len(t.first))
	for id := range t.first {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Config wires an Auditor to its node.
type Config struct {
	// Self is the observing node.
	Self ids.NodeID
	// Params tunes the suspicion model (zero value = defaults).
	Params Params
	// Predicate is the deployment's AVMEM predicate (rechecks).
	Predicate *core.Predicate
	// Monitor answers availability queries (the AVMON cross-check).
	Monitor avmon.Service
	// SelfInfo returns the node's own identity with cached availability
	// (the receiver half of the predicate recheck).
	SelfInfo func() core.NodeInfo
	// Clock supplies the current virtual or wall time.
	Clock func() time.Duration
	// Hashes optionally shares the deployment's pair-hash cache (the
	// identifier path of the predicate recheck).
	Hashes *ids.HashCache
	// PairIdx, when non-nil, names the deployment's dense host-index
	// universe (SelfIdx is this node's index in it): a sender whose address
	// memo verifies against it — or whose identifier IndexOf resolves — is
	// audited by host index, with the recheck hash taken from the cache
	// and the monitor asked through MonitorIdx. Decisions are identical
	// either way.
	PairIdx *ids.PairIndexCache
	SelfIdx int32
	// IndexOf optionally resolves an identifier to its index in PairIdx
	// (negative = not in the universe), for senders that arrive without a
	// usable memo.
	IndexOf func(ids.NodeID) int
	// MonitorIdx optionally answers availability queries by host index
	// (the same service as Monitor, minus the identifier lookup).
	MonitorIdx avmon.IndexedService
	// Trail optionally shares the deployment-wide eviction registry.
	Trail *Trail
	// Obs optionally shares the deployment-wide audit instruments
	// (instrument.go); nil leaves the auditor unmetered.
	Obs *Instruments
}

func (c Config) validate() error {
	if c.Self.IsNil() {
		return fmt.Errorf("audit: Config.Self is required")
	}
	if c.Predicate == nil {
		return fmt.Errorf("audit: Config.Predicate is required")
	}
	if c.Monitor == nil {
		return fmt.Errorf("audit: Config.Monitor is required")
	}
	if c.SelfInfo == nil {
		return fmt.Errorf("audit: Config.SelfInfo is required")
	}
	if c.Clock == nil {
		return fmt.Errorf("audit: Config.Clock is required")
	}
	if c.PairIdx != nil && (c.SelfIdx < 0 || int(c.SelfIdx) >= c.PairIdx.Hosts() || c.PairIdx.ID(c.SelfIdx) != c.Self) {
		return fmt.Errorf("audit: SelfIdx %d does not name %q in the host universe", c.SelfIdx, c.Self)
	}
	return c.Params.validate()
}

// suspect is the per-peer audit state.
type suspect struct {
	score   float64
	evicted bool
}

// peer is a sender as the auditor knows it for the length of one call:
// the identifier, the dense peer number its one suspicion record lives
// under, and its verified host index (-1 when it has none).
type peer struct {
	id  ids.NodeID
	num uint32
	idx int32
}

// internedBit marks the peer numbers the auditor hands out itself, apart
// from the host indexes of the universe.
const internedBit = 1 << 31

// Auditor is one node's receiving-side audit state: per-peer suspicion
// scores and the local blacklist. It implements ops.Auditor, so the
// operation router consults it on every inbound message, and its
// Blocked method doubles as the membership layer's blocklist. Auditor
// is not safe for concurrent use; the owning node serializes calls
// (exactly like core.Membership).
//
// All per-peer state is one table keyed by a dense peer number: the
// peer's host index when it is in the configured universe, a number the
// auditor interns for its identifier otherwise. Every entry point —
// inbound messages, tapped shuffle exchanges, aggregation-partial
// reports, Blocked, Suspicion — reaches the table through resolve, so a
// peer has exactly one record whichever path reported it and however its
// address arrived (memo, no memo, wrong memo).
type Auditor struct {
	cfg   Config
	peers peerTable
	// interned numbers the peers outside the universe (all of them when
	// there is none); nil until the first such peer.
	interned map[ids.NodeID]uint32
	// evictions counts local evictions (cheap accessor for probes).
	evictions int
}

var (
	_ ops.Auditor           = (*Auditor)(nil)
	_ ops.AggPartialAuditor = (*Auditor)(nil)
)

// New builds an Auditor.
func New(cfg Config) (*Auditor, error) {
	cfg.Params.applyDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &Auditor{cfg: cfg}, nil
}

// resolve maps an address to the peer it names. The memo is checked
// against the auditor's own universe — hosts[i] must be the identifier,
// whatever a fabric vouched for — and the identifier always wins: a
// missing or wrong memo falls back to IndexOf, and a peer outside the
// universe to its interned number. With intern unset an unknown outsider
// is not numbered and ok is false: nothing can be on record for it.
func (a *Auditor) resolve(addr ids.Addr, intern bool) (p peer, ok bool) {
	id := addr.ID()
	if u := a.cfg.PairIdx; u != nil {
		if i := addr.Index(); i >= 0 && int(i) < u.Hosts() && u.ID(i) == id {
			return peer{id: id, num: uint32(i), idx: i}, true
		}
		if a.cfg.IndexOf != nil {
			if i := a.cfg.IndexOf(id); i >= 0 && i < u.Hosts() {
				return peer{id: id, num: uint32(i), idx: int32(i)}, true
			}
		}
	}
	k, known := a.interned[id]
	if !known {
		if !intern {
			return peer{}, false
		}
		if a.interned == nil {
			a.interned = make(map[ids.NodeID]uint32, 16)
		}
		k = uint32(len(a.interned))
		a.interned[id] = k
		a.cfg.Obs.internedPeer()
	}
	return peer{id: id, num: internedBit | k, idx: -1}, true
}

// Blocked implements ops.Auditor: whether the peer has been audited out.
// The router and the membership layer ask once per inbound message and
// per neighbor, so an auditor that has evicted nobody answers without
// resolving anything.
func (a *Auditor) Blocked(addr ids.Addr) bool {
	if a.evictions == 0 {
		return false
	}
	p, ok := a.resolve(addr, false)
	return ok && a.blocked(p)
}

// blocked is Blocked for a resolved peer.
func (a *Auditor) blocked(p peer) bool {
	if a.evictions == 0 {
		return false
	}
	s := a.peers.get(p.num)
	return s != nil && s.evicted
}

// Suspicion returns the current suspicion score of id.
func (a *Auditor) Suspicion(id ids.NodeID) float64 {
	if p, ok := a.resolve(id.Addr(), false); ok {
		if s := a.peers.get(p.num); s != nil {
			return s.score
		}
	}
	return 0
}

// Evictions returns how many peers this auditor has evicted.
func (a *Auditor) Evictions() int { return a.evictions }

// ObserveInbound implements ops.Auditor: it audits one delivered
// message and reports whether the node should process it (false =
// sender blacklisted, drop). It understands operation messages
// (availability claim + in-neighbor predicate recheck) and shuffle
// exchanges (availability claim; self-advertising reply check).
func (a *Auditor) ObserveInbound(sender ids.Addr, msg any) bool {
	if sender.IsNil() || sender.ID() == a.cfg.Self {
		return true
	}
	from, _ := a.resolve(sender, true)
	if a.blocked(from) {
		return false
	}
	switch m := msg.(type) {
	case ops.AnycastMsg:
		a.observeOp(from, m.SenderAvail)
	case ops.MulticastMsg:
		// The range-cast/aggregation family (a half-open multicast, the
		// aggregation tree) gets the claim cross-check but not the §4.1
		// predicate recheck: its traffic is band-filtered, not
		// predicate-greedy, and flows repeatedly between the same
		// vertical-sliver pairs — rechecking those pairs on every tree
		// message turns ordinary estimate drift into accumulated soft
		// evidence against honest peers (observed as false evictions in
		// the census regression). Claims remain hard evidence everywhere.
		if m.Spec.HalfOpen {
			a.observeClaim(from, m.SenderAvail)
		} else {
			a.observeOp(from, m.SenderAvail)
		}
	case ops.AggMsg:
		a.observeClaim(from, m.SenderAvail)
	case ops.AggReplyMsg:
		a.observeClaim(from, m.SenderAvail)
	// ops.AggResultMsg is deliberately not audited here: like
	// DeliveredMsg it travels root→origin, and the root is rarely the
	// origin's predicate neighbor — any recheck would score honest
	// roots as suspects. Result integrity is defended elsewhere: the
	// origin's collector accepts only results bound by its own minted
	// token and the recorded root's identity, redundant disjoint trees
	// cross-check the value, and tree members' merged partials face the
	// router's PDF sanity checks, which feed SuspectAggPartial below.
	// See DESIGN.md §13 ("trust model").
	case *shuffle.Request:
		a.observeShuffle(from, m.SenderAvail, m.Entries, false)
	case *shuffle.Reply:
		a.observeShuffle(from, m.SenderAvail, m.Entries, true)
	}
	return !a.blocked(from)
}

// availability asks the monitor about a peer — by host index when it has
// one and the monitor answers by index, by identifier otherwise.
func (a *Auditor) availability(p peer) (float64, bool) {
	if p.idx >= 0 && a.cfg.MonitorIdx != nil {
		return a.cfg.MonitorIdx.AvailabilityIdx(int(p.idx))
	}
	return a.cfg.Monitor.Availability(p.id)
}

// observeOp audits one operation message: the AVMON claim cross-check
// (hard) and the §4.1 in-neighbor predicate recheck (soft). A sender
// the monitor cannot answer for yields no evidence either way — a
// young or degraded monitor (e.g. the distributed estimator before its
// pings accumulate) must not turn honest peers into suspects.
func (a *Auditor) observeOp(from peer, claim float64) {
	est, known := a.availability(from)
	if !known {
		return
	}
	if a.claimLie(claim, est) {
		a.hit(from, a.cfg.Params.HardWeight, "availability-claim")
		return
	}
	if !a.recheck(from, est) {
		a.hit(from, a.cfg.Params.SoftWeight, "predicate-recheck")
		return
	}
	a.clean(from)
}

// observeClaim audits only the availability claim of one message —
// the hard AVMON cross-check, with no predicate recheck (see the
// range-cast/aggregation cases in ObserveInbound for why).
func (a *Auditor) observeClaim(from peer, claim float64) {
	est, known := a.availability(from)
	if !known {
		return
	}
	if a.claimLie(claim, est) {
		a.hit(from, a.cfg.Params.HardWeight, "availability-claim")
		return
	}
	a.clean(from)
}

// observeShuffle audits one coarse-view exchange: for replies, the
// self-advertising violation (hard proof needing no monitor — an
// honest responder's sample never contains itself), then the claim
// cross-check when the monitor can answer.
func (a *Auditor) observeShuffle(from peer, claim float64, entries []shuffle.Entry, reply bool) {
	if reply {
		for i := range entries {
			if entries[i].ID == from.id {
				a.hit(from, a.cfg.Params.HardWeight, "self-advertising-reply")
				return
			}
		}
	}
	est, known := a.availability(from)
	if !known {
		return
	}
	if a.claimLie(claim, est) {
		a.hit(from, a.cfg.Params.HardWeight, "availability-claim")
		return
	}
	a.clean(from)
}

// SuspectAggPartial implements ops.AggPartialAuditor: the router
// reports a merged aggregation partial that contradicts the
// deployment's availability PDF (contributor count beyond the band's
// expected census, or value moments outside the band hull). The
// violation is statistical, not provable — a stale census estimate can
// flag an honest relay once — so it lands as decaying soft evidence:
// persistent manglers accumulate toward eviction, one-off noise decays
// away through clean observations.
func (a *Auditor) SuspectAggPartial(sender ids.Addr, reason string) {
	if sender.IsNil() || sender.ID() == a.cfg.Self {
		return
	}
	from, _ := a.resolve(sender, true)
	if a.blocked(from) {
		return
	}
	a.hit(from, a.cfg.Params.SoftWeight, reason)
}

// claimLie reports whether the sender inflated its availability claim
// beyond the monitor's estimate. Absent claims are not evidence, and
// neither are claims observed before ClaimWarmup — a monitor without
// history misjudges honest nodes.
func (a *Auditor) claimLie(claim, est float64) bool {
	if claim <= 0 {
		return false // no claim attached (pre-audit senders)
	}
	if a.cfg.Clock() < a.cfg.Params.ClaimWarmup {
		return false
	}
	return claim-est > a.cfg.Params.ClaimTolerance
}

// recheck evaluates the consistent in-neighbor predicate M(from, self)
// from the receiver's own information, cushioned like §4.1. The pair
// hash comes from the universe's index-keyed cache when the sender has a
// host index — the same value the identifier-keyed cache holds.
func (a *Auditor) recheck(from peer, est float64) bool {
	self := a.cfg.SelfInfo()
	if from.idx >= 0 {
		match, _ := a.cfg.Predicate.Eval(a.cfg.PairIdx.Pair(from.idx, a.cfg.SelfIdx),
			est, self.Availability, a.cfg.Params.RecheckCushion)
		return match
	}
	match, _ := a.cfg.Predicate.EvalNodes(
		core.NodeInfo{ID: from.id, Availability: est}, self,
		a.cfg.Params.RecheckCushion, a.cfg.Hashes)
	return match
}

// hit raises a peer's suspicion and evicts it at the threshold.
func (a *Auditor) hit(from peer, weight float64, reason string) {
	s := a.peers.put(from.num)
	if s.evicted {
		return
	}
	a.cfg.Obs.suspicion(reason)
	s.score += weight
	if s.score < a.cfg.Params.EvictThreshold {
		return
	}
	s.evicted = true
	a.evictions++
	a.cfg.Obs.eviction()
	if a.cfg.Trail != nil {
		a.cfg.Trail.record(Eviction{
			Observer: a.cfg.Self,
			Suspect:  from.id,
			At:       a.cfg.Clock(),
			Reason:   reason,
		})
	}
}

// clean decays a peer's suspicion after a well-formed message — the
// downward half of the hysteresis that absorbs occasional noise-driven
// misses without letting persistent misbehavior hide.
func (a *Auditor) clean(from peer) {
	s := a.peers.get(from.num)
	if s == nil || s.evicted || s.score == 0 {
		return
	}
	a.cfg.Obs.clean()
	s.score -= a.cfg.Params.Decay
	if s.score < 0 {
		s.score = 0
	}
}

// peerTable is the suspicion table: peer number → record, a small
// open-addressing table (linear probing, doubled to stay under half
// load). Records are only ever added — an honest node's auditor keeps a
// handful, an empty table answers without hashing — and a record pointer
// is valid until the next put.
type peerTable struct {
	// keys holds peer number + 1; 0 is an empty slot. The length is zero
	// or a power of two.
	keys []uint32
	recs []suspect
	n    int
}

const peerTableMinSlots = 16

// get returns the record of peer num, or nil.
func (t *peerTable) get(num uint32) *suspect {
	if t.n == 0 {
		return nil
	}
	key, mask := num+1, uint32(len(t.keys))-1
	for i := (num * 2654435761) & mask; ; i = (i + 1) & mask {
		switch t.keys[i] {
		case key:
			return &t.recs[i]
		case 0:
			return nil
		}
	}
}

// put returns the record of peer num, adding a zero one if there is none.
func (t *peerTable) put(num uint32) *suspect {
	if s := t.get(num); s != nil {
		return s
	}
	if (t.n+1)*2 > len(t.keys) {
		keys, recs := t.keys, t.recs
		size := max(2*len(keys), peerTableMinSlots)
		t.keys, t.recs, t.n = make([]uint32, size), make([]suspect, size), 0
		for i, k := range keys {
			if k != 0 {
				*t.put(k - 1) = recs[i]
			}
		}
	}
	key, mask := num+1, uint32(len(t.keys))-1
	i := (num * 2654435761) & mask
	for t.keys[i] != 0 {
		i = (i + 1) & mask
	}
	t.keys[i] = key
	t.n++
	return &t.recs[i]
}
