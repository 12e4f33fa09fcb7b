// Package avmem is an availability-aware overlay for management
// operations in non-cooperative distributed systems — a complete Go
// implementation of AVMEM (Cho, Morales, Gupta; ACM/IFIP/USENIX
// Middleware 2007).
//
// AVMEM gives every node two small membership lists chosen by a random
// and consistent predicate over node identifiers and availabilities:
// a horizontal sliver (peers with similar availability) and a vertical
// sliver (a uniform sample across the availability space). On top of
// the overlay it executes four availability-based management
// operations: threshold-anycast, range-anycast, threshold-multicast,
// and range-multicast — e.g. "select a supernode with availability
// above 0.9" or "multicast to every node between 20% and 30% uptime".
// Because the predicate is consistent (any third party can re-evaluate
// it from public information), selfish nodes gain almost nothing by
// spraying messages at non-neighbors: receivers verify and reject.
//
// This package is the live-node API: a Node drives one real AVMEM agent
// over a pluggable transport (in-memory for single-process clusters, TCP
// for real ones). Experiments over a whole simulated deployment — the
// paper's evaluation environment — are declarative scenario specs run by
// cmd/avmemsim, on the simulator engine or on real nodes over a simulated
// network:
//
//	go run ./cmd/avmemsim run scenarios/examples/quickstart.json
//	go run ./cmd/avmemsim run -backend memnet scenarios/examples/supernode.json
//
// Quick start with live nodes (examples/livecluster is the complete
// program):
//
//	tr := avmem.NewMemoryTransport(5*time.Millisecond, 20*time.Millisecond)
//	n, err := avmem.NewNode(avmem.NodeConfig{Self: id, Predicate: pred,
//		Monitor: monitor, Peers: peers, Transport: tr})
//	if err != nil { ... }
//	n.Start()
//	target, _ := avmem.NewThreshold(0.8)
//	msg, err := n.Anycast(target, avmem.DefaultAnycastOptions())
//	rec, ok := n.AnycastResult(msg)
//
// See DESIGN.md for the architecture and EXPERIMENTS.md for the
// paper-vs-measured record.
package avmem

import (
	"time"

	"avmem/internal/avdist"
	"avmem/internal/avmon"
	"avmem/internal/core"
	"avmem/internal/ids"
	"avmem/internal/node"
	"avmem/internal/ops"
	"avmem/internal/transport"
)

// Core identity and operation types, aliased from the implementation
// packages so their methods come along.
type (
	// NodeID identifies a node (host:port for TCP deployments).
	NodeID = ids.NodeID
	// Target is an availability interval an operation addresses.
	Target = ops.Target
	// Policy selects the anycast forwarding algorithm.
	Policy = ops.Policy
	// Mode selects the multicast dissemination algorithm.
	Mode = ops.Mode
	// Flavor selects which sliver lists an operation may use.
	Flavor = core.Flavor
	// AnycastOptions parameterizes anycasts.
	AnycastOptions = ops.AnycastOptions
	// MulticastOptions parameterizes multicasts.
	MulticastOptions = ops.MulticastOptions
	// MulticastSpec is a multicast's dissemination stage, nested in
	// MulticastOptions.
	MulticastSpec = ops.MulticastSpec
	// MsgID identifies one operation instance.
	MsgID = ops.MsgID
	// AnycastRecord is the outcome of one anycast.
	AnycastRecord = ops.AnycastRecord
	// MulticastRecord is the outcome of one multicast.
	MulticastRecord = ops.MulticastRecord
	// Outcome is an anycast's terminal state.
	Outcome = ops.AnycastOutcome
	// Neighbor is one AVMEM membership entry.
	Neighbor = core.Neighbor
	// Predicate is a full AVMEM membership predicate.
	Predicate = core.Predicate
	// SubPredicate computes the threshold f for one sliver kind.
	SubPredicate = core.SubPredicate
	// PDF is a discretized availability distribution.
	PDF = avdist.PDF
)

// Forwarding policies (paper §3.2.I).
const (
	Greedy        = ops.Greedy
	RetriedGreedy = ops.RetriedGreedy
	Annealing     = ops.Annealing
)

// Dissemination modes (paper §3.2.II).
const (
	Flood  = ops.Flood
	Gossip = ops.Gossip
)

// Sliver flavors.
const (
	HSOnly = core.HSOnly
	VSOnly = core.VSOnly
	HSVS   = core.HSVS
)

// Anycast outcomes.
const (
	OutcomePending      = ops.OutcomePending
	OutcomeDelivered    = ops.OutcomeDelivered
	OutcomeTTLExpired   = ops.OutcomeTTLExpired
	OutcomeRetryExpired = ops.OutcomeRetryExpired
)

// NewRange builds a range target [lo, hi] (range-anycast/-multicast).
func NewRange(lo, hi float64) (Target, error) { return ops.Range(lo, hi) }

// NewThreshold builds a threshold target: nodes with availability at
// least b, the closed interval [b, 1].
func NewThreshold(b float64) (Target, error) { return ops.Threshold(b) }

// DefaultAnycastOptions returns the paper's defaults: greedy, HS+VS,
// TTL 6.
func DefaultAnycastOptions() AnycastOptions { return ops.DefaultAnycastOptions() }

// DefaultMulticastOptions returns the paper's defaults: greedy HS+VS
// entry anycast, flooding dissemination.
func DefaultMulticastOptions() MulticastOptions { return ops.DefaultMulticastOptions() }

// NewPaperPredicate builds the paper's canonical predicate —
// Logarithmic Vertical Sliver (I.B) + Logarithmic-Constant Horizontal
// Sliver (II.B) — over the given availability PDF and stable system
// size nStar.
func NewPaperPredicate(epsilon, c1, c2, nStar float64, pdf *PDF) (*Predicate, error) {
	return core.PaperPredicate(epsilon, c1, c2, nStar, pdf)
}

// NewRandomPredicate builds a consistent random-overlay predicate with
// the given expected degree (the Figure-10 baseline).
func NewRandomPredicate(epsilon, degree, nStar float64) (*Predicate, error) {
	return core.RandomPredicate(epsilon, degree, nStar)
}

// OvernetPDF returns the built-in Overnet-like skewed availability
// model (≈50% of hosts below 0.3 availability).
func OvernetPDF() *PDF { return avdist.Overnet(avdist.DefaultBuckets) }

// UniformPDF returns the uniform availability model.
func UniformPDF() *PDF { return avdist.Uniform(avdist.DefaultBuckets) }

// PDFFromSamples estimates an availability PDF from crawled samples.
func PDFFromSamples(samples []float64) (*PDF, error) {
	return avdist.FromSamples(samples, avdist.DefaultBuckets)
}

// Live-deployment building blocks.
type (
	// Node is a live AVMEM agent.
	Node = node.Node
	// NodeConfig assembles a live node.
	NodeConfig = node.Config
	// PeerSource supplies discovery candidates to a live node.
	PeerSource = node.PeerSource
	// PeerFunc adapts a function to PeerSource.
	PeerFunc = node.PeerFunc
	// Transport moves operation messages between live nodes.
	Transport = transport.Transport
	// Monitor answers availability queries.
	Monitor = avmon.Service
	// StaticMonitor is a fixed map-backed Monitor (small deployments,
	// tests, crawler dumps).
	StaticMonitor = avmon.Static
)

// NewNode builds a live node (call Start to run it).
func NewNode(cfg NodeConfig) (*Node, error) { return node.New(cfg) }

// NewMemoryTransport returns an in-process transport with per-message
// latency drawn from [min, max]: a Memnet on the wall clock.
func NewMemoryTransport(min, max time.Duration) Transport {
	return transport.NewMemnet(transport.MemnetConfig{Latency: transport.UniformLatencyFn(min, max)})
}

// NewTCPTransport returns the TCP transport (host:port NodeIDs).
func NewTCPTransport(dialTimeout, ackTimeout time.Duration) Transport {
	return transport.NewTCP(dialTimeout, ackTimeout)
}
