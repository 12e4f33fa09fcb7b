package exp

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"avmem/internal/agg"
	"avmem/internal/audit"
	"avmem/internal/avdist"
	"avmem/internal/avmon"
	"avmem/internal/core"
	"avmem/internal/ids"
	"avmem/internal/node"
	"avmem/internal/ops"
	"avmem/internal/runtime"
	"avmem/internal/sim"
	"avmem/internal/trace"
)

// Cluster is the second deployment engine: the same churn trace,
// predicate, and monitoring stack as World, but the population consists
// of real node.Node agents — the live runtime with its CYCLON shuffle
// agent, per-node timers, and Env-level messaging — bound to virtual-time
// Envs over the simulator's own network. Only the fabric is simulated;
// the node code is the one a deployment ships. Where World
// answers "what does the protocol do", Cluster answers "what does the
// shipped node binary do": every scenario that runs on the simulator
// runs here against the live code path, reproducibly per seed.
//
// A Cluster executes single-threaded on its virtual clock (like Sim, it
// is not safe for concurrent use), so runs are deterministic and
// race-free even though the node code is the fully locked concurrent
// implementation.
type Cluster struct {
	Cfg   WorldConfig
	Trace *trace.Trace
	// Sched is the virtual clock every node timer and delivery runs on.
	Sched *sim.World
	// Net is the simulated network carrying all traffic, bound to the
	// trace's host universe: messages are closure-free value events, and
	// the address memos every node stamps travel with them.
	Net     *sim.Network
	PDF     *avdist.PDF
	NStar   float64
	Monitor avmon.Service
	Hashes  *ids.HashCache
	Col     *ops.Collector

	hosts []ids.NodeID
	nodes []*node.Node
	mon   *monitorStack
	// discovery is where every node's membership counts its discovery
	// work (node.Universe.Discovery): one struct for the metrics flush.
	discovery core.DiscoveryStats
	// forcedDownUntil[h] holds a scenario-injected outage lift time
	// (zero = none); see World.ForceOffline for the sweep discipline.
	forcedDownUntil []time.Duration
	// adv is the Byzantine cohort (nil when honest); trail is the
	// shared eviction registry (nil when auditing is off).
	adv   *advState
	trail *audit.Trail
}

var _ Deployment = (*Cluster)(nil)

// NewCluster assembles a deployment of real nodes and schedules
// their staggered starts within the first protocol period. Nodes run in
// Seeds mode: each bootstraps from a few random peers and fills its
// coarse view through live CYCLON exchanges, the deployed-agent story.
func NewCluster(cfg WorldConfig) (*Cluster, error) {
	if err := cfg.applyDefaults(); err != nil {
		return nil, err
	}
	tr := cfg.Trace
	c := &Cluster{
		Cfg:             cfg,
		Trace:           tr,
		Sched:           sim.NewWorld(cfg.Seed),
		Hashes:          ids.NewHashCache(0),
		Col:             ops.NewCollector(),
		hosts:           tr.HostIDs(),
		nodes:           make([]*node.Node, tr.Hosts()),
		forcedDownUntil: make([]time.Duration, tr.Hosts()),
	}
	pdf, err := estimatePDF(tr)
	if err != nil {
		return nil, err
	}
	c.PDF = pdf
	c.NStar = tr.MeanOnline()

	pred, err := buildPredicate(cfg, c.PDF, c.NStar)
	if err != nil {
		return nil, err
	}
	c.Net = sim.NewNetwork(c.Sched, privateLatency{cfg.Latency, rand.New(rand.NewSource(cfg.Seed + 1))}, c.nodeOnline, 0)
	c.Net.Bind(c.hosts, c.onlineAt)
	mon, err := buildMonitorStack(cfg, tr, c.hosts, c.Sched, c.nodeOnline, c.onlineAt)
	if err != nil {
		return nil, err
	}
	c.mon = mon
	c.Monitor = mon.monitor
	// Every node is handed the host-index universe World's memberships
	// run on: the shared host table, the trace's identifier resolver, and
	// the monitor's epoch that scopes discovery's slot memos.
	pairs, err := ids.NewPairIndexCache(c.hosts, 0)
	if err != nil {
		return nil, err
	}
	universe := &node.Universe{Pairs: pairs, IndexOf: tr.HostIndex, MonitorEpoch: mon.epoch, Discovery: &c.discovery}
	adv, err := buildAdversaries(cfg.Adversary, tr, cfg.Seed)
	if err != nil {
		return nil, err
	}
	c.adv = adv
	if cfg.Audit != nil {
		c.trail = audit.NewTrail()
	}
	var auditIns *audit.Instruments
	if cfg.Metrics != nil {
		c.Sched.Instrument(cfg.Metrics)
		c.Col.Instrument(cfg.Metrics)
		auditIns = audit.NewInstruments(cfg.Metrics)
		flushed := newFlushObs(cfg.Metrics)
		c.Sched.OnFlush(func() {
			// Each node's router counts into a struct of its own.
			var flood ops.FloodStats
			for _, n := range c.nodes {
				flood.Add(n.FloodStats())
			}
			flushed.publish(c.discovery, 0, flood, c.Net.AddrMemoStats())
		})
	}
	// The same band-census estimator the sim engine arms its routers
	// with (see installNodes): keeps the two engines' PDF sanity checks
	// — and therefore their metrics — in lockstep.
	nstar := c.NStar
	bandCensus := func(lo, hi float64) float64 {
		return nstar * pdf.IntervalMass(lo, math.Min(hi, 1))
	}

	fabric := runtime.NetFabric(c.Net)
	for h, id := range c.hosts {
		h := h
		// The env RNG (annealing draws) gets a distinct stream from the
		// node's agent RNG, mirroring the live path's Seed+1 offset.
		env, err := runtime.NewVirtual(runtime.VirtualConfig{
			Self:      ids.AddrAt(id, int32(h)),
			Scheduler: c.Sched,
			Fabric:    fabric,
			Online:    func() bool { return c.onlineAt(h) },
			Seed:      nodeSeed(cfg.Seed, h) + 1,
		})
		if err != nil {
			return nil, err
		}
		n, err := node.New(node.Config{
			Self:           id,
			Predicate:      pred,
			Monitor:        c.Monitor,
			Seeds:          pickSeeds(c.Sched.Rand(), c.hosts, id, 4),
			ViewSize:       cfg.ViewSize,
			ShuffleLen:     cfg.ShuffleLen,
			Env:            env,
			Collector:      c.Col,
			Hashes:         c.Hashes,
			ProtocolPeriod: cfg.ProtocolPeriod,
			RefreshPeriod:  cfg.RefreshPeriod,
			VerifyInbound:  cfg.VerifyInbound,
			Cushion:        cfg.Cushion,
			Seed:           nodeSeed(cfg.Seed, h),
			Behavior:       c.adv.behavior(h),
			Audit:          cfg.Audit,
			AuditTrail:     c.trail,
			AuditObs:       auditIns,
			BandCensus:     bandCensus,
			OpTrace:        cfg.OpTrace,
			Universe:       universe,
		})
		if err != nil {
			return nil, err
		}
		c.nodes[h] = n
		// Stagger node starts across the first protocol period — the
		// live counterpart of the simulator's per-node driver offsets.
		offset := time.Duration(c.Sched.Rand().Int63n(int64(cfg.ProtocolPeriod)))
		c.Sched.After(offset, func() {
			// Registration on the simulated network cannot fail; a failure
			// here would be a wiring bug, not an operational condition.
			if err := n.Start(); err != nil {
				panic(fmt.Sprintf("exp: starting cluster node: %v", err))
			}
		})
	}
	return c, nil
}

// privateLatency samples model from a stream of its own, ignoring the
// world RNG sim.Network hands it, so message latencies and the world's
// own draws (start offsets, bootstrap seeds, initiator picks) never
// interleave in one stream.
type privateLatency struct {
	model sim.LatencyModel
	rng   *rand.Rand
}

// Sample implements sim.LatencyModel.
func (l privateLatency) Sample(*rand.Rand) time.Duration { return l.model.Sample(l.rng) }

// nodeSeed derives a node's private RNG seed from the cluster seed and
// the node's trace index (a splitmix-style spread keeps streams
// uncorrelated across nodes and seeds).
func nodeSeed(seed int64, h int) int64 {
	z := uint64(seed) + uint64(h+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// Stop shuts every node down (after a run, before discarding the
// cluster).
func (c *Cluster) Stop() {
	for _, n := range c.nodes {
		n.Stop()
	}
}

// onlineAt is the hot-path liveness check by trace host index: the
// churn trace overlaid with scenario-forced outages. Pure read, hence
// reentrant from delivery callbacks.
func (c *Cluster) onlineAt(h int) bool {
	now := c.Sched.Now()
	if c.forcedDownUntil[h] > now {
		return false
	}
	return c.Trace.UpAtIndex(h, now)
}

// nodeOnline is the id-keyed liveness check (the network's gate for
// hosts outside the universe, and the distributed monitor use it).
func (c *Cluster) nodeOnline(id ids.NodeID) bool {
	h := c.Trace.HostIndex(id)
	return h >= 0 && c.onlineAt(h)
}

// Node returns the live node for an identity (nil if unknown).
func (c *Cluster) Node(id ids.NodeID) *node.Node {
	h := c.Trace.HostIndex(id)
	if h < 0 {
		return nil
	}
	return c.nodes[h]
}

// Hosts implements Deployment.
func (c *Cluster) Hosts() []ids.NodeID { return c.hosts }

// OnlineHosts implements Deployment.
func (c *Cluster) OnlineHosts() []ids.NodeID {
	out := make([]ids.NodeID, 0, len(c.hosts)/2)
	for h, id := range c.hosts {
		if c.onlineAt(h) {
			out = append(out, id)
		}
	}
	return out
}

// Online implements Deployment.
func (c *Cluster) Online(id ids.NodeID) bool { return c.nodeOnline(id) }

// TrueAvailability implements Deployment.
func (c *Cluster) TrueAvailability(id ids.NodeID) float64 {
	h := c.Trace.HostIndex(id)
	if h < 0 {
		return 0
	}
	return c.trueAvailabilityAt(h)
}

// trueAvailabilityAt is TrueAvailability by trace host index.
func (c *Cluster) trueAvailabilityAt(h int) float64 {
	return c.Trace.SmoothedAvailability(h, c.Trace.EpochAt(c.Sched.Now()))
}

// OnlineInBand implements Deployment.
func (c *Cluster) OnlineInBand(lo, hi float64) []ids.NodeID {
	out := make([]ids.NodeID, 0, 64)
	for h, id := range c.hosts {
		if !c.onlineAt(h) {
			continue
		}
		if av := c.trueAvailabilityAt(h); av >= lo && av < hi {
			out = append(out, id)
		}
	}
	return out
}

// EligibleFor implements Deployment.
func (c *Cluster) EligibleFor(t ops.Target) int {
	n := 0
	for h := range c.hosts {
		if c.onlineAt(h) && t.Contains(c.trueAvailabilityAt(h)) {
			n++
		}
	}
	return n
}

// PickInitiator implements Deployment.
func (c *Cluster) PickInitiator(lo, hi float64) (ids.NodeID, bool) {
	band := c.OnlineInBand(lo, hi)
	if len(band) == 0 {
		return ids.Nil, false
	}
	return band[c.Sched.Rand().Intn(len(band))], true
}

// Membership implements Deployment.
func (c *Cluster) Membership(id ids.NodeID) *core.Membership {
	n := c.Node(id)
	if n == nil {
		return nil
	}
	return n.Membership()
}

// MeanDegree implements Deployment.
func (c *Cluster) MeanDegree() float64 {
	online, total := 0, 0
	for h, n := range c.nodes {
		if c.onlineAt(h) {
			online++
			total += n.Membership().Size()
		}
	}
	if online == 0 {
		return 0
	}
	return float64(total) / float64(online)
}

// MonitorService implements Deployment.
func (c *Cluster) MonitorService() avmon.Service { return c.Monitor }

// HashCache implements Deployment.
func (c *Cluster) HashCache() *ids.HashCache { return c.Hashes }

// Collector implements Deployment.
func (c *Cluster) Collector() *ops.Collector { return c.Col }

// Rand implements Deployment.
func (c *Cluster) Rand() *rand.Rand { return c.Sched.Rand() }

// Now implements Deployment.
func (c *Cluster) Now() time.Duration { return c.Sched.Now() }

// RunFor implements Deployment.
func (c *Cluster) RunFor(d time.Duration) { c.Sched.Run(c.Sched.Now() + d) }

// Warmup implements Deployment.
func (c *Cluster) Warmup(d time.Duration) { c.RunFor(d) }

// StableSize implements Deployment.
func (c *Cluster) StableSize() float64 { return c.NStar }

// Anycast implements Deployment.
func (c *Cluster) Anycast(from ids.NodeID, target ops.Target, opts ops.AnycastOptions) (ops.MsgID, error) {
	n := c.Node(from)
	if n == nil {
		return ops.MsgID{}, unknownNode(from)
	}
	return n.Anycast(target, opts)
}

// Multicast implements Deployment.
func (c *Cluster) Multicast(from ids.NodeID, target ops.Target, opts ops.MulticastOptions) (ops.MsgID, error) {
	n := c.Node(from)
	if n == nil {
		return ops.MsgID{}, unknownNode(from)
	}
	return n.Multicast(target, opts)
}

// Aggregate implements Deployment.
func (c *Cluster) Aggregate(from ids.NodeID, op agg.Op, lo, hi float64, opts ops.AggregateOptions) (ops.MsgID, error) {
	n := c.Node(from)
	if n == nil {
		return ops.MsgID{}, unknownNode(from)
	}
	return n.Aggregate(op, lo, hi, opts)
}

// ForceOffline implements Deployment: id drops off the network and out
// of its own protocol drivers until the given virtual time, regardless
// of its churn trace. The lift-time sweep keeps liveness reads pure
// (see World.ForceOffline).
func (c *Cluster) ForceOffline(id ids.NodeID, until time.Duration) {
	if until <= c.Sched.Now() {
		return
	}
	h := c.Trace.HostIndex(id)
	if h < 0 {
		return
	}
	c.forcedDownUntil[h] = until
	c.Sched.At(until, func() {
		if c.forcedDownUntil[h] == until {
			c.forcedDownUntil[h] = 0
		}
	})
}

// SetMonitorNoise implements Deployment.
func (c *Cluster) SetMonitorNoise(maxErr float64, staleness time.Duration) error {
	return c.mon.setNoise(maxErr, staleness)
}

// CoarseView implements Deployment: the live node's CYCLON agent view.
func (c *Cluster) CoarseView(id ids.NodeID) []ids.NodeID {
	n := c.Node(id)
	if n == nil {
		return nil
	}
	return n.CoarseView()
}

// Adversaries implements Deployment.
func (c *Cluster) Adversaries() []ids.NodeID { return c.adv.cohort() }

// EngagedAdversaries implements Deployment.
func (c *Cluster) EngagedAdversaries() []ids.NodeID { return c.adv.engagedCohort() }

// SetAdversariesActive implements Deployment.
func (c *Cluster) SetAdversariesActive(active bool) { c.adv.setActive(active) }

// AuditTrail implements Deployment.
func (c *Cluster) AuditTrail() *audit.Trail { return c.trail }
