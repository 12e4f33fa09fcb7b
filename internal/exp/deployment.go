// Package exp is the deployment-engine layer. One Deployment owns a
// running AVMEM population on a virtual clock — the churn trace, the
// simulated network, the monitoring stack, liveness, the adversary cohort
// and the audit trail (deployment.go) — and answers ground-truth queries
// (query.go) and the overlay and attack probes of the paper's evaluation
// (§4; overlay.go, attack.go). Two engines differ only in what they
// install on each host: protocol state driven by cohort ticks
// (engine_sim.go), or real node.Node agents (engine_memnet.go).
// internal/scenario drives every experiment on either engine.
//
// Architecture: DESIGN.md §9 (deployment engines and the scenario
// layer).
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
	"avmem/internal/obs"
	"avmem/internal/ops"
	"avmem/internal/shuffle"
	"avmem/internal/sim"
	"avmem/internal/trace"
)

// WorldConfig parameterizes a simulated AVMEM deployment. Zero fields
// take the paper's defaults (§4, and DESIGN.md §8).
type WorldConfig struct {
	// Seed drives all randomness in the world.
	Seed int64
	// Trace is the churn trace; nil generates the default Overnet-like
	// trace with this Seed.
	Trace *trace.Trace
	// Epsilon is the horizontal sliver half-width (default 0.1).
	Epsilon float64
	// C1, C2 are the predicate constants (default 3 each).
	C1, C2 float64
	// Predicate overrides the paper predicate entirely (e.g. the
	// random-overlay baseline of Figure 10). When set, Epsilon/C1/C2
	// are ignored.
	Predicate *core.Predicate
	// ViewSize is the coarse-view bound v (default √N, §3.1).
	ViewSize int
	// ShuffleLen is the CYCLON exchange size (default v/4, min 3).
	ShuffleLen int
	// ProtocolPeriod is the discovery/shuffle period (default 1 min).
	ProtocolPeriod time.Duration
	// RefreshPeriod is the refresh sub-protocol period (default 20 min).
	RefreshPeriod time.Duration
	// MonitorErr and MonitorStaleness wrap the availability oracle in a
	// Noisy layer when either is non-zero (drives Figures 5–6).
	MonitorErr       float64
	MonitorStaleness time.Duration
	// DistributedMonitor replaces the oracle with the AVMON-style
	// monitoring overlay: consistent hash-selected monitors ping their
	// targets every ProtocolPeriod and queries aggregate their
	// empirical estimates — the paper's actual deployment story.
	// Estimates start cold; allow extra warmup.
	DistributedMonitor bool
	// VerifyInbound makes every router verify senders (§4.1).
	VerifyInbound bool
	// Cushion is the verification cushion (§4.1; 0 or 0.1 in the paper).
	Cushion float64
	// Latency is the per-hop latency model (default U[20ms, 80ms]).
	Latency sim.LatencyModel
	// Audit, when non-nil, gives every node the receiving-side audit
	// layer (suspicion scores, blacklist, eviction).
	Audit *audit.Params
	// Adversary, when non-nil, makes a deterministic fraction of the
	// population misbehave (internal/adversary behaviors injected under
	// the Runtime/Env contract).
	Adversary *AdversaryConfig
	// Metrics, when non-nil, instruments the deployment (engine event
	// counters, op outcomes, audit verdicts) into this registry.
	// Determinism-neutral: enabling it cannot change scenario output.
	Metrics *obs.Registry
	// OpTrace, when non-nil, records causal op spans from every router
	// into this shared tracer. Determinism-neutral like Metrics.
	OpTrace *obs.Tracer
}

// DefaultEpsilon is the horizontal sliver half-width a zero
// WorldConfig.Epsilon takes.
const DefaultEpsilon = 0.1

func (c *WorldConfig) applyDefaults() error {
	if c.Trace == nil {
		tr, err := trace.Generate(trace.DefaultGenConfig(c.Seed))
		if err != nil {
			return err
		}
		c.Trace = tr
	}
	if c.Epsilon == 0 {
		c.Epsilon = DefaultEpsilon
	}
	// The paper leaves c1/c2 unstated; 3.0 calibrates the sliver sizes
	// to the scales of Figures 2(b,c) (VS median ≈ 15–20, HS up to ~30
	// at 442 online) and gives each node an expected ≥1 vertical
	// neighbor per 0.1-wide availability range, which Figure 7's
	// one-hop deliveries require.
	if c.C1 == 0 {
		c.C1 = 3
	}
	if c.C2 == 0 {
		c.C2 = 3
	}
	if c.ViewSize == 0 {
		c.ViewSize = int(math.Round(math.Sqrt(float64(c.Trace.Hosts()))))
	}
	if c.ViewSize < 4 {
		c.ViewSize = 4
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
	if c.Latency == nil {
		c.Latency = sim.PaperLatency()
	}
	return nil
}

// Backend names for NewDeployment; the scenario engine and the public
// API both dispatch through these.
const (
	// BackendSim installs protocol state on every host and drives it
	// with cohort ticks (engine_sim.go).
	BackendSim = "sim"
	// BackendMemnet installs a real node.Node agent on every host
	// (engine_memnet.go). The name is the one scenario files and the CLI
	// have always used.
	BackendMemnet = "memnet"
)

// Deployment is a fully wired AVMEM population on a virtual clock: churn
// trace, simulated network, monitoring stack, per-host membership and
// operation initiators, and a shared collector. The overlay and attack
// probes, the scenario engine, and the public Sim API drive it the same
// way on either engine — the "one protocol core, two engines" contract.
//
// Time methods advance or read the virtual clock; query methods
// (query.go) answer from ground truth (the churn trace overlaid with
// scenario-forced outages); operation methods initiate management
// operations at a host and report into Collector. A Deployment runs on
// one thread, like the sim.World under it: it is not safe for concurrent
// use.
type Deployment struct {
	Cfg   WorldConfig
	Trace *trace.Trace
	// Sim is the virtual clock every driver, timer and delivery runs on.
	Sim *sim.World
	// Net is the simulated network carrying all traffic, bound to the
	// trace's host universe.
	Net *sim.Network
	PDF *avdist.PDF
	// NStar is N*, the trace's mean online population.
	NStar float64
	// Monitor is the availability service every host queries, including
	// any active noise layer.
	Monitor avmon.Service
	Hashes  *ids.HashCache
	// PairIdx memoizes H(x,y) keyed by dense host-index pairs, shared by
	// every membership in the deployment.
	PairIdx *ids.PairIndexCache
	// Collector records every operation's outcome.
	Collector *ops.Collector
	// Rand is the world's seeded randomness (initiator picks, churn-burst
	// sampling); the engines' installs draw from it too.
	Rand *rand.Rand

	// hosts, members, initiators, and forcedDownUntil are parallel slices
	// keyed by trace host index: liveness, drivers, and deliveries run on
	// array probes, with a single id→index map (the trace's) at the API
	// boundary.
	hosts      []ids.NodeID
	members    []*core.Membership
	initiators []initiator
	// discovery is where every membership counts its discovery work
	// (core.Config.Stats), and flood where every router counts its
	// flood-path work (ops.RouterConfig.Stats): one struct each for the
	// metrics flush to read, on both engines. inbound is where every
	// memnet node counts the messages it receives (node.Universe.Inbound).
	discovery core.DiscoveryStats
	flood     ops.FloodStats
	inbound   node.InboundStats

	// adv is the Byzantine cohort (nil when honest); trail is the shared
	// eviction registry (nil when auditing is off).
	adv   *advState
	trail *audit.Trail
	// auditIns is the deployment-shared audit instrument set (nil when
	// Cfg.Metrics is nil).
	auditIns *audit.Instruments

	// mon is the monitoring plumbing: the stable indirection the whole
	// deployment queries plus the pre-noise base SetMonitorNoise rewraps.
	mon *monitorStack
	// forcedDownUntil[h] holds a scenario-injected outage: the virtual
	// time host h's outage lifts (zero = none); see ForceOffline.
	forcedDownUntil []time.Duration
	// live is the online bitset onlineAt reads: the current epoch's
	// column of the churn trace minus the forced outages, valid from the
	// (monotone) instant it was built until liveUntil — see syncLive.
	live      []uint64
	liveUntil time.Duration

	// avMemo/avValid memoize TrueAvailability per epoch (avEpoch): probe
	// helpers call it O(hosts) times per query, and the underlying trace
	// fold is O(epochs) per call.
	avMemo  []float64
	avValid []bool
	avEpoch int
	// band is InBand's buffer.
	band []int

	// The sim engine's state: the central shuffle and the per-host audit
	// layers (nil when auditing is off).
	shuffle  *shuffle.Cyclon
	auditors []*audit.Auditor
	// The memnet engine's live nodes (nil on the sim engine).
	nodes []*node.Node
}

// initiator starts operations at one host: its *ops.Router on the sim
// engine, its *node.Node on memnet.
type initiator interface {
	Anycast(target ops.Target, opts ops.AnycastOptions) (ops.MsgID, error)
	Multicast(target ops.Target, opts ops.MulticastOptions) (ops.MsgID, error)
	Aggregate(op agg.Op, lo, hi float64, opts ops.AggregateOptions) (ops.MsgID, error)
}

// NewDeployment assembles a deployment on the named backend (empty
// defaults to BackendSim). The availability PDF handed to the predicates
// is computed from the trace's full-horizon availabilities — the
// "crawler-computed, communicated at pre-run-time" object of §2.1 — and
// N* is the trace's mean online population.
//
// The shared part is built first and draws nothing from the world RNG;
// the engine's per-host install then makes every draw and schedules
// every per-host event, in the same order on every run.
func NewDeployment(backend string, cfg WorldConfig) (*Deployment, error) {
	var install func(*Deployment, *core.Predicate) error
	switch backend {
	case "", BackendSim:
		install = (*Deployment).installSim
	case BackendMemnet:
		install = (*Deployment).installMemnet
	default:
		return nil, fmt.Errorf("exp: unknown backend %q (%s, %s)", backend, BackendSim, BackendMemnet)
	}
	if err := cfg.applyDefaults(); err != nil {
		return nil, err
	}
	tr := cfg.Trace
	clock := sim.NewWorld(cfg.Seed)
	d := &Deployment{
		Cfg:             cfg,
		Trace:           tr,
		Sim:             clock,
		Rand:            clock.Rand(),
		Hashes:          ids.NewHashCache(0),
		Collector:       ops.NewCollector(),
		hosts:           tr.HostIDs(),
		members:         make([]*core.Membership, tr.Hosts()),
		initiators:      make([]initiator, tr.Hosts()),
		forcedDownUntil: make([]time.Duration, tr.Hosts()),
		live:            make([]uint64, (tr.Hosts()+63)/64),
		avMemo:          make([]float64, tr.Hosts()),
		avValid:         make([]bool, tr.Hosts()),
		avEpoch:         -1,
	}
	pairIdx, err := ids.NewPairIndexCache(d.hosts, 0)
	if err != nil {
		return nil, err
	}
	d.PairIdx = pairIdx
	if d.PDF, err = estimatePDF(tr); err != nil {
		return nil, err
	}
	d.NStar = tr.MeanOnline()
	pred, err := buildPredicate(cfg, d.PDF, d.NStar)
	if err != nil {
		return nil, err
	}
	latency := cfg.Latency
	if backend == BackendMemnet { // see privateLatency
		latency = privateLatency{cfg.Latency, rand.New(rand.NewSource(cfg.Seed + 1))}
	}
	d.Net = sim.NewNetwork(d.Sim, latency, nil, 0)
	if err := d.Net.Bind(d.hosts, d.onlineAt); err != nil {
		return nil, err
	}
	if d.mon, err = buildMonitorStack(cfg, tr, d.hosts, d.Sim, d.onlineAt); err != nil {
		return nil, err
	}
	d.Monitor = d.mon.monitor
	if d.adv, err = buildAdversaries(cfg.Adversary, tr, cfg.Seed); err != nil {
		return nil, err
	}
	if cfg.Audit != nil {
		d.trail = audit.NewTrail()
	}
	if cfg.Metrics != nil {
		d.Sim.Instrument(cfg.Metrics)
		d.Collector.Instrument(cfg.Metrics)
		d.auditIns = audit.NewInstruments(cfg.Metrics)
		flushed := newFlushObs(cfg.Metrics)
		d.Sim.OnFlush(func() {
			dropped := 0
			if d.shuffle != nil {
				dropped = d.shuffle.ReceivedDropped()
			}
			flushed.publish(d.discovery, dropped, d.flood, d.inbound, d.Net.AddrMemoStats())
		})
	}
	if err := install(d, pred); err != nil {
		return nil, err
	}
	return d, nil
}

// bandCensus is the band-census estimator every host's router is armed
// with: N* × the availability PDF's interval mass, for the PDF sanity
// checks on merged aggregation partials. One estimator on both engines
// keeps those checks — and therefore their metrics — in lockstep.
func (d *Deployment) bandCensus(lo, hi float64) float64 {
	return d.NStar * d.PDF.IntervalMass(lo, math.Min(hi, 1))
}

// Now returns the current virtual time.
func (d *Deployment) Now() time.Duration { return d.Sim.Now() }

// RunFor advances the deployment by d.
func (d *Deployment) RunFor(dur time.Duration) { d.Sim.Run(d.Sim.Now() + dur) }

// Stop shuts every live node down (after a run, before discarding the
// deployment); the sim engine holds nothing to stop.
func (d *Deployment) Stop() {
	for _, n := range d.nodes {
		n.Stop()
	}
}

// initiatorOf resolves the host an operation starts at.
func (d *Deployment) initiatorOf(id ids.NodeID) (initiator, error) {
	h := d.Trace.HostIndex(id)
	if h < 0 {
		return nil, fmt.Errorf("exp: unknown node %q", id)
	}
	return d.initiators[h], nil
}

// Anycast initiates an anycast at node from.
func (d *Deployment) Anycast(from ids.NodeID, target ops.Target, opts ops.AnycastOptions) (ops.MsgID, error) {
	in, err := d.initiatorOf(from)
	if err != nil {
		return ops.MsgID{}, err
	}
	return in.Anycast(target, opts)
}

// Multicast initiates a multicast at node from (a range-cast when
// opts.HalfOpen is set).
func (d *Deployment) Multicast(from ids.NodeID, target ops.Target, opts ops.MulticastOptions) (ops.MsgID, error) {
	in, err := d.initiatorOf(from)
	if err != nil {
		return ops.MsgID{}, err
	}
	return in.Multicast(target, opts)
}

// Aggregate initiates an in-overlay aggregation at node from: op over
// the local values of every node in [lo, hi).
func (d *Deployment) Aggregate(from ids.NodeID, op agg.Op, lo, hi float64, opts ops.AggregateOptions) (ops.MsgID, error) {
	in, err := d.initiatorOf(from)
	if err != nil {
		return ops.MsgID{}, err
	}
	return in.Aggregate(op, lo, hi, opts)
}

// CoarseView returns a node's current shuffling (coarse) view — the
// surface eclipse attacks poison first: its slot in the central shuffle
// on the sim engine, its CYCLON agent's view on memnet.
func (d *Deployment) CoarseView(id ids.NodeID) []ids.NodeID {
	if d.nodes == nil {
		return d.shuffle.View(id)
	}
	h := d.Trace.HostIndex(id)
	if h < 0 {
		return nil
	}
	return d.nodes[h].CoarseView()
}
