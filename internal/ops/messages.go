package ops

import (
	"fmt"
	"strconv"
	"time"

	"avmem/internal/agg"
	"avmem/internal/core"
	"avmem/internal/ids"
)

// MsgID uniquely identifies one management operation instance.
type MsgID struct {
	Origin ids.NodeID
	Seq    uint64
}

// String implements fmt.Stringer. Built with strconv rather than
// fmt.Sprintf: the op tracer stringifies an ID per recorded span, and
// this path is ~4x cheaper.
func (m MsgID) String() string {
	return string(m.Origin) + "#" + strconv.FormatUint(m.Seq, 10)
}

// Policy selects the anycast forwarding algorithm (paper §3.2.I).
type Policy int

// Anycast forwarding policies.
const (
	// Greedy forwards to a neighbor inside the target, or failing that
	// the neighbor whose cached availability is closest to the target.
	Greedy Policy = iota + 1
	// RetriedGreedy is Greedy plus next-hop acknowledgments: an
	// unresponsive next hop is retried with the next-best neighbor,
	// spending one unit of the message's retry budget.
	RetriedGreedy
	// Annealing chooses a random next hop with probability
	// p = exp(−Δ/ttl) while traversing the neighbor list, falling back
	// to the greedy choice.
	Annealing
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	if p < Greedy || p > Annealing {
		return fmt.Sprintf("Policy(%d)", int(p))
	}
	return [...]string{Greedy: "greedy", RetriedGreedy: "retried-greedy", Annealing: "simulated-annealing"}[p]
}

// Mode selects the multicast dissemination algorithm (paper §3.2.II).
type Mode int

// Multicast modes.
const (
	// Flood forwards to every in-range neighbor exactly once.
	Flood Mode = iota + 1
	// Gossip periodically forwards to up to fanout in-range neighbors
	// for Ng protocol periods.
	Gossip
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	if m != Flood && m != Gossip {
		return fmt.Sprintf("Mode(%d)", int(m))
	}
	return [...]string{Flood: "flood", Gossip: "gossip"}[m]
}

// AnycastMsg is the wire message for {threshold,range}-anycast. It is
// also the first stage of a multicast (range-casts included) and of an
// aggregation: when Multicast or Aggregate is non-nil, a node inside the
// target switches to dissemination or to rooting the tree instead of
// terminating the operation.
type AnycastMsg struct {
	ID     MsgID
	Target Target
	// AnycastOptions travel with the message, their fields flat on the
	// wire. TTL is the remaining time-to-live in virtual hops, decremented
	// at every forward; Retry the remaining retry budget (RetriedGreedy).
	AnycastOptions
	// Hops counts virtual hops travelled so far.
	Hops int
	// SentAt is the operation's start time (for latency measurement).
	SentAt time.Duration
	// SenderAvail is the forwarding node's claimed availability,
	// restamped at every hop. Honest routers claim their cached own
	// availability; receivers' audit layers cross-check the claim
	// against the monitoring service (an unverifiable or inflated claim
	// is hard evidence of misbehavior).
	SenderAvail float64
	// Multicast carries stage-two parameters when this anycast fronts a
	// multicast operation.
	Multicast *MulticastSpec
	// Aggregate carries stage-two parameters when this anycast fronts
	// an aggregation: the first node inside the band becomes the root
	// of the partial-combining tree.
	Aggregate *AggregateSpec
}

// MulticastSpec carries the dissemination parameters of a multicast.
type MulticastSpec struct {
	// Mode selects flooding or gossip; Flavor the sliver lists used.
	Mode   Mode
	Flavor core.Flavor
	// Fanout and Rounds (Ng) parameterize gossip; the paper selects
	// them so Fanout×Rounds ≈ log(N*).
	Fanout int
	Rounds int
	// Period is the gossip period (paper: 1 s).
	Period time.Duration
	// HalfOpen makes the target the half-open Band [Lo, Hi) — a
	// range-cast (DESIGN.md §13): a node exactly at Hi below 1 is not
	// addressed, so adjacent bands tile.
	HalfOpen bool
	// Payload is the management payload delivered to every target member.
	Payload string
}

// MulticastMsg is the wire message of the dissemination stage: a
// target-filtered flood or gossip with per-node duplicate suppression.
type MulticastMsg struct {
	ID     MsgID
	Target Target
	Spec   MulticastSpec
	SentAt time.Duration
	// SenderAvail is the disseminating node's claimed availability (see
	// AnycastMsg.SenderAvail).
	SenderAvail float64
	// Depth counts dissemination hops from the entry node (the entry
	// delivery is depth 0).
	Depth int
}

// contains reports whether availability av lies in the message's target:
// the closed interval, or the half-open band of a range-cast.
func (m *MulticastMsg) contains(av float64) bool {
	if m.Spec.HalfOpen {
		return Band{Lo: m.Target.Lo, Hi: m.Target.Hi}.Contains(av)
	}
	return m.Target.Contains(av)
}

// AggregateSpec carries the tree-building parameters of an in-overlay
// aggregation.
type AggregateSpec struct {
	// Op is the aggregate to compute over the band members' values.
	Op agg.Op
	// Band is the half-open availability interval aggregated over.
	Band Band
	// Flavor selects the sliver lists the tree grows along.
	Flavor core.Flavor
	// Token is the origin-chosen binding secret for this tree instance:
	// the root must echo it in its AggResultMsg for the origin to accept
	// the result. It travels only on the entry anycast path (origin →
	// root); forwardAgg zeroes it before the spec is copied into AggMsg
	// tree requests, so ordinary tree members never learn it and cannot
	// race a fabricated result past the origin.
	Token uint64
	// Salt perturbs the pair-hash ordering the tree grows along, so the
	// redundant instances of one logical aggregation build disjointly
	// shaped trees. Zero means the unsalted ordering; unlike Token it is
	// not secret and stays on the AggMsg copies.
	Salt uint64
}

// AggMsg is the aggregation request: it disseminates through the band
// like a range-cast, and the sender of a node's first copy becomes
// that node's parent in the implicit spanning tree.
type AggMsg struct {
	ID   MsgID
	Spec AggregateSpec
	// Depth is the receiver's tree depth (the root opens at depth 0 and
	// forwards at depth 1).
	Depth  int
	SentAt time.Duration
	// SenderAvail is the forwarding node's claimed availability.
	SenderAvail float64
}

// AggReplyMsg flows one hop up the tree, from a child to the parent it
// first heard the request from. Either a combined partial (the child's
// whole subtree) or a decline: the receiver was already in the tree
// through another parent, or lies outside the band.
type AggReplyMsg struct {
	ID MsgID
	// Partial is the child subtree's combined aggregate (zero when
	// Decline is set).
	Partial agg.Partial
	// Decline marks a contribution-free accounting reply.
	Decline bool
	// SenderAvail is the replying node's claimed availability.
	SenderAvail float64
}

// AggResultMsg returns the root's combined aggregate to the operation
// origin. Like DeliveredMsg it is origin-addressed rather than
// neighbor-addressed. The origin's collector accepts it only when
// Token echoes the origin-minted binding token of the instance and the
// transport-level sender matches the recorded entry node — a result
// fabricated by a tree member (which never saw the token) is rejected
// and counted, not raced past the origin.
type AggResultMsg struct {
	ID MsgID
	// Result is the tree-wide combined partial.
	Result agg.Partial
	// Token echoes AggregateSpec.Token; the root learned it from the
	// entry anycast.
	Token uint64
	// SentAt echoes the operation's start time on the origin's clock.
	SentAt time.Duration
	// SenderAvail is the root's claimed availability.
	SenderAvail float64
}

// DeliveredMsg notifies an anycast's origin that the operation reached
// a node inside the target. In the simulation the shared collector
// already observed the delivery and the notice is a harmless duplicate;
// in a live deployment, where every node keeps its own collector, the
// notice is what materializes the outcome at the initiator.
type DeliveredMsg struct {
	ID   MsgID
	Hops int
	// SentAt echoes the operation's start time on the origin's clock,
	// so the origin can compute the delivery latency locally.
	SentAt time.Duration
}
