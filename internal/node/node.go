// Package node is the live AVMEM runtime: an agent that maintains its
// slivers with periodic timers and executes management operations over
// a message fabric. The same core and ops packages the simulator
// exercises run here unchanged — the node binds them to a runtime.Env,
// and the Env decides which engine executes the node: the default is
// the wall-clock Env over a real transport (TCP or in-process), and the
// scenario engine injects virtual-time Envs to run whole clusters of
// real nodes deterministically inside the simulator's clock.
//
// Architecture: DESIGN.md §11 (live runtime) and §6 (the Runtime/Env
// contract).
package node

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"avmem/internal/adversary"
	"avmem/internal/agg"
	"avmem/internal/audit"
	"avmem/internal/avmon"
	"avmem/internal/core"
	"avmem/internal/ids"
	"avmem/internal/obs"
	"avmem/internal/ops"
	"avmem/internal/runtime"
	"avmem/internal/shuffle"
	"avmem/internal/transport"

	"sync"
)

// PeerSource supplies coarse-view candidates for discovery — the live
// counterpart of the shuffling membership service. Implementations may
// be a static seed list, a shared in-process shuffler, or a client of
// an external membership service. Peers is called outside the node's
// internal lock.
type PeerSource interface {
	// Peers returns current coarse-view candidates for self.
	Peers(self ids.NodeID) []ids.NodeID
}

// PeerFunc adapts a function to PeerSource.
type PeerFunc func(self ids.NodeID) []ids.NodeID

// Peers implements PeerSource.
func (f PeerFunc) Peers(self ids.NodeID) []ids.NodeID { return f(self) }

// Config assembles a live node.
type Config struct {
	// Self is this node's identity; for the TCP transport it must be
	// the host:port to listen on.
	Self ids.NodeID
	// Predicate is the AVMEM predicate shared by the deployment.
	Predicate *core.Predicate
	// Monitor answers availability queries.
	Monitor avmon.Service
	// Peers supplies discovery candidates. Exactly one of Peers and
	// Seeds must be set.
	Peers PeerSource
	// Seeds bootstraps the node's built-in shuffling coarse view (the
	// live CYCLON agent): give a few known peers and the view fills
	// itself through periodic exchanges. Use instead of Peers when no
	// external membership service exists.
	Seeds []ids.NodeID
	// ViewSize bounds the built-in coarse view (default 16; only used
	// with Seeds).
	ViewSize int
	// ShuffleLen is the per-exchange entry count (default ViewSize/4,
	// min 3; only used with Seeds).
	ShuffleLen int
	// Transport moves operation messages. Required unless Env is set.
	Transport transport.Transport
	// Env overrides the node's host environment entirely — clock,
	// timers, messaging, randomness. Leave nil for the default live
	// (wall-clock) Env over Transport; the deployment engine injects
	// virtual-time Envs here to run real nodes inside the simulator.
	Env runtime.Env
	// Collector receives operation outcomes. Leave nil for a private
	// collector (each node sees only its own operations); a deployment
	// harness shares one collector across nodes for cluster-wide
	// accounting.
	Collector *ops.Collector
	// Hashes optionally shares a memoized pair-hash cache across nodes
	// of an in-process deployment.
	Hashes *ids.HashCache
	// ProtocolPeriod is the discovery period (default 1 min).
	ProtocolPeriod time.Duration
	// RefreshPeriod is the refresh period (default 20 min).
	RefreshPeriod time.Duration
	// VerifyInbound enables the in-neighbor check on received messages.
	VerifyInbound bool
	// Cushion is the verification cushion.
	Cushion float64
	// Seed seeds all of the node's private randomness — the shuffle
	// agent's sampling and (in the default live Env) the annealing RNG —
	// so a fixed (Seed, Env) pair replays the same local decisions.
	// 0 derives a seed from Self.
	Seed int64
	// Behavior, when non-nil, makes this node misbehave: the host Env is
	// wrapped with the adversary interceptor, so the node's outbound and
	// inbound traffic passes through the behavior on either engine.
	Behavior adversary.Behavior
	// Audit, when non-nil, enables the receiving-side audit layer: the
	// node scores every sender, evicts provable or persistent
	// misbehavers from its membership, and stops routing to them.
	Audit *audit.Params
	// AuditTrail optionally shares a deployment-wide eviction registry
	// across nodes (detection-latency and false-positive metrics).
	AuditTrail *audit.Trail
	// BandCensus, when non-nil, estimates the deployment's expected
	// online population inside an availability band [lo, hi) and arms
	// the router's PDF sanity checks on merged aggregation partials
	// (see ops.RouterConfig.BandCensus). Deployment harnesses derive it
	// from the trace's availability PDF and N*.
	BandCensus func(lo, hi float64) float64
	// AuditObs optionally shares deployment-wide audit instruments
	// (suspicion/eviction counters); nil leaves auditing unmetered.
	AuditObs *audit.Instruments
	// OpTrace optionally records causal op spans from this node's
	// router into a deployment-shared tracer.
	OpTrace *obs.Tracer
	// Universe, when non-nil, names the dense host-index universe the
	// node lives in, and the node addresses its shuffle view, discovery
	// and monitor queries by host index instead of identifier. An
	// in-process deployment harness that knows the whole population sets
	// it; a node that learns peers only off the wire (avmemnode over TCP)
	// has no universe and leaves it nil. Membership and shuffle decisions
	// are identical either way.
	Universe *Universe
}

// Universe is a deployment's dense host-index universe as a node needs
// it (see Config.Universe).
type Universe struct {
	// Pairs holds the host table in index order; it must contain Self.
	Pairs *ids.PairIndexCache
	// IndexOf resolves an identifier to its index in Pairs (negative =
	// unknown).
	IndexOf func(ids.NodeID) int
	// MonitorEpoch optionally reports the monitor's epoch and whether its
	// answers are currently epoch-constant (core.Config.MonitorEpoch).
	MonitorEpoch func() (epoch int, stable bool)
	// Discovery optionally names one core.DiscoveryStats for every node of
	// the deployment to count its discovery work into (core.Config.Stats)
	// — for deployments that run their nodes on one thread, as the
	// virtual-time cluster does; the counters are plain fields.
	Discovery *core.DiscoveryStats
	// Flood optionally names one ops.FloodStats for every node's router
	// to count its flood-path work into (ops.RouterConfig.Stats), on the
	// same one-thread terms as Discovery. Without it each router counts
	// on its own.
	Flood *ops.FloodStats
	// Inbound optionally names one InboundStats for every node to count
	// the messages it receives into, on the same terms. Without it the
	// node counts nothing.
	Inbound *InboundStats
}

// InboundStats counts the messages nodes received, by kind, in plain
// fields the deployment's owner publishes.
type InboundStats struct {
	ShuffleRequests int64 // *shuffle.Request, for the node's agent
	ShuffleReplies  int64 // *shuffle.Reply, for the node's agent
	Ops             int64 // everything else, for the node's router
}

func (c *Config) validate() error {
	if c.Self.IsNil() {
		return fmt.Errorf("node: Self is required")
	}
	if c.Predicate == nil {
		return fmt.Errorf("node: Predicate is required")
	}
	if c.Monitor == nil {
		return fmt.Errorf("node: Monitor is required")
	}
	if c.Peers == nil && len(c.Seeds) == 0 {
		return fmt.Errorf("node: either Peers or Seeds is required")
	}
	if c.Peers != nil && len(c.Seeds) > 0 {
		return fmt.Errorf("node: Peers and Seeds are mutually exclusive")
	}
	if c.Transport == nil && c.Env == nil {
		return fmt.Errorf("node: either Transport or Env is required")
	}
	if u := c.Universe; u != nil && (u.Pairs == nil || u.IndexOf == nil) {
		return fmt.Errorf("node: Universe needs Pairs and IndexOf")
	}
	if c.ViewSize == 0 {
		c.ViewSize = 16
	}
	if c.ShuffleLen == 0 {
		c.ShuffleLen = c.ViewSize / 4
	}
	if c.ShuffleLen < 3 {
		c.ShuffleLen = 3
	}
	if c.ShuffleLen > c.ViewSize {
		c.ShuffleLen = c.ViewSize
	}
	if c.ProtocolPeriod == 0 {
		c.ProtocolPeriod = time.Minute
	}
	if c.RefreshPeriod == 0 {
		c.RefreshPeriod = 20 * time.Minute
	}
	if c.Seed == 0 {
		c.Seed = int64(ids.SelfHash(c.Self) * (1 << 62))
	}
	return nil
}

// Node is a live AVMEM agent. Create with New, then Start; all exported
// methods are safe for concurrent use.
type Node struct {
	cfg Config

	// base is the raw host environment; env is base with every
	// asynchronous callback gated through the node's lock and shutdown
	// check. The router and the periodic drivers see only env.
	base runtime.Env
	env  runtime.Env

	mu     sync.Mutex
	mem    *core.Membership
	router *ops.Router
	col    *ops.Collector
	stops  []func()
	// stopped is set once, by Stop; every callback reads it before taking
	// the lock (an atomic load, not a channel poll).
	stopped atomic.Bool
	running bool
	// agent is the built-in live CYCLON (Seeds mode); nil in Peers mode.
	// Discovery runs mem.DiscoverView over its view in place.
	agent *shuffle.Agent
	// auditor is the receiving-side audit layer (nil when Audit unset).
	auditor *audit.Auditor
	// claimBits/claimAt cache the node's own availability claim (float
	// bits) and its stamp time for the lock-free shuffle reply path. A
	// cache the discovery driver has not refreshed recently (e.g. right
	// after an outage) yields no claim rather than a stale one.
	claimBits atomic.Uint64
	claimAt   atomic.Int64
}

// New builds a live node (not yet started).
func New(cfg Config) (*Node, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	n := &Node{
		cfg: cfg,
		col: cfg.Collector,
	}
	if n.col == nil {
		n.col = ops.NewCollector()
	}
	n.base = cfg.Env
	if n.base == nil {
		// The stopped flag (not the node lock) reports liveness, so the
		// router may ask while the lock is held.
		live, err := runtime.NewLive(runtime.LiveConfig{
			Self:      cfg.Self,
			Transport: cfg.Transport,
			Seed:      cfg.Seed + 1,
			Online:    func() bool { return !n.stopped.Load() },
		})
		if err != nil {
			return nil, err
		}
		n.base = live
	}
	// The adversary interceptor sits directly on the host Env: protocol
	// code above it stays honest-looking while its traffic is rewritten.
	n.base = adversary.Wrap(n.base, cfg.Behavior)
	n.env = runtime.Gated(n.base, n.gate)
	if cfg.Audit != nil {
		auditCfg := audit.Config{
			Self:      cfg.Self,
			Params:    *cfg.Audit,
			Predicate: cfg.Predicate,
			Monitor:   cfg.Monitor,
			SelfInfo:  func() core.NodeInfo { return n.mem.SelfInfo() },
			Clock:     n.env.Now,
			Hashes:    cfg.Hashes,
			Trail:     cfg.AuditTrail,
			Obs:       cfg.AuditObs,
		}
		if u := cfg.Universe; u != nil {
			// Senders arrive memo-less off a transport; the auditor resolves
			// them through IndexOf and keys their records by host index.
			auditCfg.PairIdx = u.Pairs
			auditCfg.SelfIdx = int32(u.IndexOf(cfg.Self))
			auditCfg.IndexOf = u.IndexOf
			auditCfg.MonitorIdx, _ = cfg.Monitor.(avmon.IndexedService)
		}
		auditor, err := audit.New(auditCfg)
		if err != nil {
			return nil, err
		}
		n.auditor = auditor
	}
	if len(cfg.Seeds) > 0 {
		agent, err := shuffle.NewAgent(cfg.Self, cfg.ViewSize, cfg.ShuffleLen, cfg.Seed)
		if err != nil {
			return nil, err
		}
		if u := cfg.Universe; u != nil {
			agent.UseIndex(u.Pairs.IDs(), u.IndexOf)
		}
		agent.Seed(cfg.Seeds)
		n.agent = agent
	}
	memCfg := core.Config{
		Predicate:     cfg.Predicate,
		Monitor:       cfg.Monitor,
		Hashes:        cfg.Hashes,
		Clock:         n.env.Now,
		VerifyCushion: cfg.Cushion,
	}
	if u := cfg.Universe; u != nil {
		memCfg.PairIdx = u.Pairs
		memCfg.SelfIdx = int32(u.IndexOf(cfg.Self))
		memCfg.MonitorIdx, _ = cfg.Monitor.(avmon.IndexedService)
		memCfg.MonitorEpoch = u.MonitorEpoch
		memCfg.Stats = u.Discovery
	}
	if n.auditor != nil {
		memCfg.Blocked = n.auditor.Blocked
	}
	mem, err := core.NewMembership(cfg.Self, memCfg)
	if err != nil {
		return nil, err
	}
	n.mem = mem
	n.cacheClaim()
	routerCfg := ops.RouterConfig{
		Membership:    mem,
		Env:           n.env,
		Collector:     n.col,
		VerifyInbound: cfg.VerifyInbound,
		BandCensus:    cfg.BandCensus,
		OpTrace:       cfg.OpTrace,
	}
	if n.auditor != nil {
		routerCfg.Auditor = n.auditor
	}
	if u := cfg.Universe; u != nil {
		routerCfg.Stats = u.Flood
	}
	router, err := ops.NewRouter(routerCfg)
	if err != nil {
		return nil, err
	}
	n.router = router
	return n, nil
}

// cacheClaim snapshots the node's current self-availability claim (a
// fresh monitor answer) for the lock-free shuffle reply path. Called
// under the node lock from the discovery/refresh drivers, so the claim
// is at most one protocol period stale.
func (n *Node) cacheClaim() {
	n.claimBits.Store(math.Float64bits(n.mem.SelfClaim()))
	n.claimAt.Store(int64(n.env.Now()))
}

// selfClaim returns the cached availability claim, or zero ("no
// claim") when the cache has gone stale — a node answering traffic
// right after rejoining must not claim its pre-outage availability.
func (n *Node) selfClaim() float64 {
	age := time.Duration(int64(n.env.Now()) - n.claimAt.Load())
	if age > 2*n.cfg.ProtocolPeriod {
		return 0
	}
	return math.Float64frombits(n.claimBits.Load())
}

// gate serializes asynchronous Env callbacks (timer ticks, ack results)
// against the node's state and drops them after Stop.
func (n *Node) gate(fn func()) {
	if n.stopped.Load() {
		return
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if !n.running {
		return
	}
	fn()
}

// Self returns the node's identity.
func (n *Node) Self() ids.NodeID { return n.cfg.Self }

// Start registers with the message fabric and launches the periodic
// discovery and refresh drivers (the first discovery runs immediately).
func (n *Node) Start() error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.running {
		return fmt.Errorf("node: already started")
	}
	if err := n.env.Register(n.handleMessage); err != nil {
		return err
	}
	n.running = true
	// The discovery driver runs on the ungated env: its first phase (an
	// external PeerSource fetch) must not hold the node lock, so the
	// round does its own gating in phase two.
	n.stops = append(n.stops,
		n.base.Every(0, n.cfg.ProtocolPeriod, func() { n.discoverRound(true) }),
		n.env.Every(n.cfg.RefreshPeriod, n.cfg.RefreshPeriod, n.refreshTick),
	)
	return nil
}

// Stop halts the drivers and unregisters from the fabric.
func (n *Node) Stop() {
	n.mu.Lock()
	if !n.running {
		n.mu.Unlock()
		return
	}
	n.running = false
	n.stopped.Store(true)
	for _, stop := range n.stops {
		stop()
	}
	n.stops = nil
	n.mu.Unlock()
	if s, ok := n.base.(runtime.Stopper); ok {
		s.Stop()
	}
	n.env.Unregister()
}

// discoverRound runs one discovery round in two phases: the external
// candidate fetch (PeerSource) happens outside the node lock — a
// PeerSource may call back into the node — and the membership update
// happens under it. requireRunning gates the periodic driver;
// DiscoverNow passes false so it also works on a built-but-unstarted
// node.
//
// A node whose Env reports it offline (a trace-driven outage in a
// virtual cluster) skips protocol work entirely, like its simulated
// counterpart: the round returns before anything else, fetch included,
// so an offline round has no effect at all — which is what lets an Env
// skip an offline node's periodic runs outright (runtime.Env.Every).
func (n *Node) discoverRound(requireRunning bool) {
	if n.stopped.Load() || !n.base.Online() {
		return
	}
	var external []ids.NodeID
	if n.agent == nil {
		external = n.cfg.Peers.Peers(n.cfg.Self)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if requireRunning && !n.running {
		return
	}
	n.discoverLocked(external)
}

// discoverLocked applies one discovery round; caller holds n.mu.
func (n *Node) discoverLocked(external []ids.NodeID) {
	n.cacheClaim()
	if n.agent == nil {
		n.mem.Discover(external)
		return
	}
	// One agent call ticks the shuffle (re-bootstrapping an emptied view
	// from the seeds) and judges the round's candidates — the view plus
	// the partner the tick removed pending its reply — so no inbound
	// shuffle message can land between the two. Without a Universe every
	// candidate is a stray and this is mem.Discover. The request is handed
	// on to the fabric; its recipient's HandleRequest recycles it.
	peer, req, ok := n.agent.TickDiscover(n.cfg.Seeds, n.mem.DiscoverView)
	if ok {
		req.SenderAvail = n.selfClaim()
		n.env.Send(peer, req)
	}
}

// refreshTick runs one refresh round; the gate holds n.mu. Like
// discoverRound, an offline round returns before it does anything.
func (n *Node) refreshTick() {
	if !n.base.Online() {
		return
	}
	n.mem.Refresh()
	n.cacheClaim()
}

// handleMessage is the fabric callback. It counts every message it is
// handed by kind, refused ones too, when the universe shares counts.
func (n *Node) handleMessage(from ids.Addr, msg any) {
	// Shuffle traffic goes to the agent (it has its own lock and must
	// not wait on operation handling). The audit layer inspects it
	// first: a poisoned or lying exchange raises the sender's suspicion,
	// and traffic from audited-out peers is discarded. Auditing shuffle
	// traffic takes the node lock (auditor state is not its own monitor),
	// but never calls back out, so the agent stays uncontended. The agent
	// consumes what it merges; a message refused here is the node's to
	// recycle, as the last holder of it (shuffle.NewRequest).
	var counts *InboundStats
	if u := n.cfg.Universe; u != nil {
		counts = u.Inbound
	}
	switch m := msg.(type) {
	case *shuffle.Request:
		if counts != nil {
			counts.ShuffleRequests++
		}
		if n.agent == nil || !n.observeShuffle(from, msg) {
			m.Recycle()
			return
		}
		reply := n.agent.HandleRequest(from.ID(), m)
		reply.SenderAvail = n.selfClaim()
		n.env.Send(from, reply)
		return
	case *shuffle.Reply:
		if counts != nil {
			counts.ShuffleReplies++
		}
		if n.agent == nil || !n.observeShuffle(from, msg) {
			m.Recycle()
			return
		}
		n.agent.HandleReply(from.ID(), m)
		return
	}
	if counts != nil {
		counts.Ops++
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.router.HandleMessage(from, msg)
}

// observeShuffle audits one inbound shuffle message; false means drop
// (the sender is, or just became, blacklisted).
func (n *Node) observeShuffle(from ids.Addr, msg any) bool {
	if n.auditor == nil {
		return true
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.auditor.ObserveInbound(from, msg)
}

// CoarseView returns the node's current coarse view (Seeds mode only;
// nil in Peers mode).
func (n *Node) CoarseView() []ids.NodeID {
	if n.agent == nil {
		return nil
	}
	return n.agent.View()
}

// Anycast initiates an anycast and returns its operation ID.
func (n *Node) Anycast(target ops.Target, opts ops.AnycastOptions) (ops.MsgID, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.router.Anycast(target, opts)
}

// Multicast initiates a multicast (a range-cast when opts.HalfOpen is
// set) and returns its operation ID.
func (n *Node) Multicast(target ops.Target, opts ops.MulticastOptions) (ops.MsgID, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.router.Multicast(target, opts)
}

// Aggregate initiates an in-overlay aggregation of op over the local
// values of every node in [lo, hi) and returns its operation ID; the
// combined result materializes in this node's AggregateResult once the
// tree converges.
func (n *Node) Aggregate(op agg.Op, lo, hi float64, opts ops.AggregateOptions) (ops.MsgID, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.router.Aggregate(op, lo, hi, opts)
}

// The *Result accessors return a copy of an operation record this node
// initiated. The collector takes it under its own lock and clones the
// record's map and slice: other nodes sharing the collector
// (Config.Collector) keep writing the original from their goroutines,
// which the node's own lock does not order.

// AnycastResult returns the current record of an anycast this node
// initiated.
func (n *Node) AnycastResult(id ops.MsgID) (ops.AnycastRecord, bool) {
	return n.col.Anycast(id)
}

// MulticastResult returns the current record of a multicast or
// range-cast this node initiated. The Delivered map reflects only
// deliveries observed by this node's collector (its own receipt) unless
// the deployment shares a collector through Config.Collector.
func (n *Node) MulticastResult(id ops.MsgID) (ops.MulticastRecord, bool) {
	return n.col.Multicast(id)
}

// AggregateResult returns the current record of an aggregation this
// node initiated; Done flips once the tree's combined partial came
// back from the root.
func (n *Node) AggregateResult(id ops.MsgID) (ops.AggregateRecord, bool) {
	return n.col.Aggregate(id)
}

// Neighbors returns a snapshot of the node's current AVMEM neighbors.
func (n *Node) Neighbors(f core.Flavor) []core.Neighbor {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.mem.CopyNeighbors(f)
}

// SliverSizes returns the current horizontal and vertical sliver sizes.
func (n *Node) SliverSizes() (hs, vs int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.mem.SliverSize(core.SliverHorizontal), n.mem.SliverSize(core.SliverVertical)
}

// Membership exposes the node's membership state to deployment
// harnesses (ground-truth queries, attack probes). The returned value
// is shared, not a copy: callers outside a single-threaded harness must
// treat it as read-only and tolerate concurrent updates, or use the
// snapshot accessors (Neighbors, SliverSizes) instead.
func (n *Node) Membership() *core.Membership {
	return n.mem
}

// Auditor exposes the node's audit layer (nil when auditing is off).
// Like Membership, the returned value is shared, not a copy.
func (n *Node) Auditor() *audit.Auditor { return n.auditor }

// DiscoverNow forces an immediate discovery round (useful in tests and
// demos; production nodes rely on the periodic driver). It works on a
// built-but-unstarted node too; only a stopped node ignores it.
func (n *Node) DiscoverNow() { n.discoverRound(false) }
