package exp

import (
	"fmt"
	"math/rand"
	"time"

	"avmem/internal/agg"
	"avmem/internal/audit"
	"avmem/internal/avmon"
	"avmem/internal/core"
	"avmem/internal/ids"
	"avmem/internal/ops"
)

// Deployment is the engine-agnostic surface of a running AVMEM
// deployment. The simulated World and the memnet Cluster both implement
// it, so the overlay and attack probes, the scenario engine, and the
// public Sim API drive either engine unchanged — the "one protocol
// core, two engines" contract.
//
// Time methods advance or read the deployment's virtual clock; query
// methods answer from ground truth (the churn trace overlaid with
// scenario-forced outages); operation methods initiate management
// operations at a node and report into the shared Collector.
type Deployment interface {
	// Hosts returns all host identifiers (trace-index order).
	Hosts() []ids.NodeID
	// OnlineHosts returns the currently online host identifiers.
	OnlineHosts() []ids.NodeID
	// Online reports whether a node is online at the current time.
	Online(id ids.NodeID) bool
	// TrueAvailability returns the noiseless long-term availability of a
	// node at the current time (ground truth for bands and eligibility).
	TrueAvailability(id ids.NodeID) float64
	// OnlineInBand returns online nodes with true availability in [lo, hi).
	OnlineInBand(lo, hi float64) []ids.NodeID
	// EligibleFor counts online nodes inside the operation target.
	EligibleFor(t ops.Target) int
	// PickInitiator selects a random online node from [lo, hi).
	PickInitiator(lo, hi float64) (ids.NodeID, bool)
	// Membership returns a node's membership state (nil if unknown).
	Membership(id ids.NodeID) *core.Membership
	// MeanDegree returns the mean AVMEM neighbor count across online
	// nodes.
	MeanDegree() float64
	// MonitorService returns the availability service nodes query —
	// including any active noise layer.
	MonitorService() avmon.Service
	// HashCache returns the deployment's shared pair-hash cache.
	HashCache() *ids.HashCache
	// Collector returns the shared operation-outcome collector.
	Collector() *ops.Collector
	// Rand returns the deployment's seeded randomness (initiator picks,
	// churn-burst sampling).
	Rand() *rand.Rand
	// Now returns the current virtual time.
	Now() time.Duration
	// RunFor advances the deployment by d.
	RunFor(d time.Duration)
	// Warmup advances the deployment by d before measurements.
	Warmup(d time.Duration)
	// StableSize returns N*, the trace's mean online population.
	StableSize() float64
	// Anycast initiates an anycast at node from.
	Anycast(from ids.NodeID, target ops.Target, opts ops.AnycastOptions) (ops.MsgID, error)
	// Multicast initiates a multicast at node from (a range-cast when
	// opts.HalfOpen is set).
	Multicast(from ids.NodeID, target ops.Target, opts ops.MulticastOptions) (ops.MsgID, error)
	// Aggregate initiates an in-overlay aggregation at node from: op
	// over the local values of every node in [lo, hi).
	Aggregate(from ids.NodeID, op agg.Op, lo, hi float64, opts ops.AggregateOptions) (ops.MsgID, error)
	// ForceOffline injects an outage for id until the given virtual time.
	ForceOffline(id ids.NodeID, until time.Duration)
	// SetMonitorNoise swaps the monitor-noise layer mid-run.
	SetMonitorNoise(maxErr float64, staleness time.Duration) error
	// CoarseView returns a node's current shuffling (coarse) view — the
	// surface eclipse attacks poison first.
	CoarseView(id ids.NodeID) []ids.NodeID
	// Adversaries returns the configured Byzantine cohort (nil when the
	// deployment is honest).
	Adversaries() []ids.NodeID
	// EngagedAdversaries returns the cohort members that emitted
	// traffic while armed — the detection-rate denominator (an
	// adversary offline for a whole attack never misbehaved and cannot
	// be observed).
	EngagedAdversaries() []ids.NodeID
	// SetAdversariesActive arms or disarms the cohort's behaviors
	// (scenario onset/offset events).
	SetAdversariesActive(active bool)
	// AuditTrail returns the deployment-wide eviction registry (nil
	// when auditing is off).
	AuditTrail() *audit.Trail
}

var _ Deployment = (*World)(nil)

// Backend names for NewDeployment; the scenario engine and the public
// API both dispatch through these.
const (
	// BackendSim is the virtual-time simulator engine (World).
	BackendSim = "sim"
	// BackendMemnet is the live-runtime engine (Cluster): real
	// node.Node agents on the simulated network. The name is the one
	// scenario files and the CLI have always used.
	BackendMemnet = "memnet"
)

// NewDeployment assembles a deployment on the named backend (empty
// defaults to BackendSim).
func NewDeployment(backend string, cfg WorldConfig) (Deployment, error) {
	switch backend {
	case "", BackendSim:
		return NewWorld(cfg)
	case BackendMemnet:
		return NewCluster(cfg)
	default:
		return nil, fmt.Errorf("exp: unknown backend %q (%s, %s)", backend, BackendSim, BackendMemnet)
	}
}

// unknownNode is the error operation initiation reports for an identity
// outside the deployment.
func unknownNode(id ids.NodeID) error { return fmt.Errorf("exp: unknown node %q", id) }

// Collector implements Deployment.
func (w *World) Collector() *ops.Collector { return w.Col }

// MonitorService implements Deployment.
func (w *World) MonitorService() avmon.Service { return w.Monitor }

// HashCache implements Deployment.
func (w *World) HashCache() *ids.HashCache { return w.Hashes }

// Rand implements Deployment.
func (w *World) Rand() *rand.Rand { return w.Sim.Rand() }

// Now implements Deployment.
func (w *World) Now() time.Duration { return w.Sim.Now() }

// StableSize implements Deployment.
func (w *World) StableSize() float64 { return w.NStar }

// Anycast implements Deployment.
func (w *World) Anycast(from ids.NodeID, target ops.Target, opts ops.AnycastOptions) (ops.MsgID, error) {
	r := w.Router(from)
	if r == nil {
		return ops.MsgID{}, unknownNode(from)
	}
	return r.Anycast(target, opts)
}

// Multicast implements Deployment.
func (w *World) Multicast(from ids.NodeID, target ops.Target, opts ops.MulticastOptions) (ops.MsgID, error) {
	r := w.Router(from)
	if r == nil {
		return ops.MsgID{}, unknownNode(from)
	}
	return r.Multicast(target, opts)
}

// Aggregate implements Deployment.
func (w *World) Aggregate(from ids.NodeID, op agg.Op, lo, hi float64, opts ops.AggregateOptions) (ops.MsgID, error) {
	r := w.Router(from)
	if r == nil {
		return ops.MsgID{}, unknownNode(from)
	}
	return r.Aggregate(op, lo, hi, opts)
}
