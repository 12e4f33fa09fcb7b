package avmem

import (
	"fmt"
	"time"

	"avmem/internal/core"
	"avmem/internal/exp"
	"avmem/internal/ids"
	"avmem/internal/ops"
	"avmem/internal/trace"
)

// SimConfig parameterizes a simulated deployment. The zero value plus a
// Seed gives the paper's full setting (1442 hosts, 7-day Overnet-like
// churn, ε 0.1, predicates I.B + II.B).
type SimConfig struct {
	// Hosts is the population size (default 1442, the Overnet trace).
	Hosts int
	// Days is the trace length (default 7).
	Days float64
	// Seed drives all randomness.
	Seed int64
	// Epsilon, C1, C2 are the predicate parameters (defaults 0.1, 3, 3).
	Epsilon, C1, C2 float64
	// Cushion is the verification cushion (paper: 0 or 0.1).
	Cushion float64
	// VerifyInbound makes every node verify message senders.
	VerifyInbound bool
	// MonitorErr adds bounded error to availability queries.
	MonitorErr float64
	// MonitorStaleness serves stale availability snapshots.
	MonitorStaleness time.Duration
	// DistributedMonitor replaces the availability oracle with the
	// AVMON-style ping-based monitoring overlay (estimates start cold;
	// allow extra warmup).
	DistributedMonitor bool
	// ProtocolPeriod is the discovery period (default 1 minute).
	ProtocolPeriod time.Duration
	// Trace overrides the synthetic churn trace entirely.
	Trace *Trace
	// Backend selects the execution engine: "sim" (default) runs the
	// virtual-time simulator's deployment engine; "memnet" runs real
	// live-runtime nodes on the same simulated network and virtual
	// clock. The API is identical on both.
	Backend string
}

// AutoInitiator asks the simulation to pick a random online initiator.
const AutoInitiator = NodeID("")

// Sim is a deterministic AVMEM deployment on a virtual clock: the whole
// population, its churn, membership maintenance, and operations —
// executed by the simulator's deployment engine or, with the "memnet"
// backend, by real live-runtime nodes over the same network. Sim
// is not safe for concurrent use.
type Sim struct {
	w *exp.Deployment
}

// NewSim assembles a simulated deployment at virtual time zero. Call
// Warmup before measuring anything — slivers need time to form (the
// paper warms up for 24 hours).
func NewSim(cfg SimConfig) (*Sim, error) {
	if cfg.Hosts < 0 {
		return nil, fmt.Errorf("avmem: Hosts must be non-negative, got %d", cfg.Hosts)
	}
	if cfg.Days < 0 {
		return nil, fmt.Errorf("avmem: Days must be non-negative, got %v", cfg.Days)
	}
	tr := cfg.Trace
	if tr == nil {
		gen := trace.DefaultGenConfig(cfg.Seed)
		if cfg.Hosts > 0 {
			gen.Hosts = cfg.Hosts
		}
		if cfg.Days > 0 {
			gen.Epochs = int(cfg.Days * 24 * 3)
		}
		var err error
		tr, err = trace.Generate(gen)
		if err != nil {
			return nil, fmt.Errorf("avmem: generating churn trace: %w", err)
		}
	}
	wc := exp.WorldConfig{
		Seed:               cfg.Seed,
		Trace:              tr,
		Epsilon:            cfg.Epsilon,
		C1:                 cfg.C1,
		C2:                 cfg.C2,
		Cushion:            cfg.Cushion,
		VerifyInbound:      cfg.VerifyInbound,
		MonitorErr:         cfg.MonitorErr,
		MonitorStaleness:   cfg.MonitorStaleness,
		DistributedMonitor: cfg.DistributedMonitor,
		ProtocolPeriod:     cfg.ProtocolPeriod,
	}
	w, err := exp.NewDeployment(cfg.Backend, wc)
	if err != nil {
		return nil, fmt.Errorf("avmem: %w", err)
	}
	return &Sim{w: w}, nil
}

// Warmup advances virtual time by d, letting the overlay form.
func (s *Sim) Warmup(d time.Duration) { s.w.RunFor(d) }

// RunFor advances virtual time by d.
func (s *Sim) RunFor(d time.Duration) { s.w.RunFor(d) }

// Now returns the current virtual time.
func (s *Sim) Now() time.Duration { return s.w.Now() }

// Nodes returns every node identity in the deployment.
func (s *Sim) Nodes() []NodeID { return s.w.Hosts() }

// OnlineNodes returns the currently online nodes.
func (s *Sim) OnlineNodes() []NodeID { return s.w.OnlineHosts() }

// Availability returns a node's current long-term availability.
func (s *Sim) Availability(id NodeID) float64 { return s.w.TrueAvailability(id) }

// Online reports whether a node is currently online.
func (s *Sim) Online(id NodeID) bool { return s.w.Online(id) }

// SliverSizes returns a node's current horizontal and vertical sliver
// sizes.
func (s *Sim) SliverSizes(id NodeID) (hs, vs int) {
	m := s.w.Membership(id)
	if m == nil {
		return 0, 0
	}
	return m.SliverSize(core.SliverHorizontal), m.SliverSize(core.SliverVertical)
}

// Neighbors returns a snapshot of a node's current AVMEM neighbors
// under a flavor.
func (s *Sim) Neighbors(id NodeID, f Flavor) []Neighbor {
	m := s.w.Membership(id)
	if m == nil {
		return nil
	}
	return m.CopyNeighbors(f)
}

// MeanDegree returns the mean neighbor count across online nodes.
func (s *Sim) MeanDegree() float64 { return s.w.MeanDegree() }

// PickNode returns a random online node with availability in [lo, hi).
func (s *Sim) PickNode(lo, hi float64) (NodeID, bool) { return s.w.PickInitiator(lo, hi) }

// Eligible counts online nodes inside the target (the denominator of
// multicast reliability).
func (s *Sim) Eligible(t Target) int { return s.w.EligibleFor(t) }

// opHorizon bounds how long a single operation is allowed to run in
// virtual time before Anycast/Multicast give up waiting. Retried
// anycasts can burn many ack timeouts, and gossip runs for several
// periods; two minutes covers every configuration in the paper.
const opHorizon = 2 * time.Minute

// Anycast initiates an anycast from the given node (or a random online
// node for AutoInitiator), advances virtual time until the operation
// reaches a terminal state, and returns its record.
func (s *Sim) Anycast(from NodeID, target Target, opts AnycastOptions) (AnycastRecord, error) {
	initiator, err := s.resolveInitiator(from)
	if err != nil {
		return AnycastRecord{}, err
	}
	id, err := s.w.Anycast(initiator, target, opts)
	if err != nil {
		return AnycastRecord{}, err
	}
	col := s.w.Collector
	deadline := s.w.Now() + opHorizon
	for s.w.Now() < deadline {
		s.w.RunFor(time.Second)
		rec, ok := col.Anycast(id)
		if ok && rec.Outcome != ops.OutcomePending {
			return rec, nil
		}
	}
	rec, _ := col.Anycast(id)
	return rec, nil
}

// Multicast initiates a multicast from the given node (or a random
// online node for AutoInitiator), advances virtual time until
// dissemination settles, and returns its record. The Eligible field is
// filled automatically from the current online population.
func (s *Sim) Multicast(from NodeID, target Target, opts MulticastOptions) (MulticastRecord, error) {
	initiator, err := s.resolveInitiator(from)
	if err != nil {
		return MulticastRecord{}, err
	}
	opts.Eligible = s.w.EligibleFor(target)
	id, err := s.w.Multicast(initiator, target, opts)
	if err != nil {
		return MulticastRecord{}, err
	}
	settle := 30 * time.Second
	if opts.Mode == ops.Gossip {
		settle += time.Duration(opts.Rounds+4) * opts.Period
	}
	s.w.RunFor(settle)
	rec, ok := s.w.Collector.Multicast(id)
	if !ok {
		return MulticastRecord{}, fmt.Errorf("avmem: multicast record vanished")
	}
	return rec, nil
}

func (s *Sim) resolveInitiator(from NodeID) (NodeID, error) {
	if from != AutoInitiator {
		if s.w.Membership(from) == nil {
			return ids.Nil, fmt.Errorf("avmem: unknown node %q", from)
		}
		return from, nil
	}
	id, ok := s.w.PickInitiator(0, 1.01)
	if !ok {
		return ids.Nil, fmt.Errorf("avmem: no online nodes to initiate from")
	}
	return id, nil
}
