// Package exp is the deployment-engine layer. Two engines implement the
// shared Deployment surface (deployment.go): World assembles a
// deployment inside the discrete-event simulator (wiring, clocks, cohort
// protocol drivers — deploy.go), and Cluster deploys real node.Node
// agents on the same simulated network (cluster.go). Both answer
// ground-truth queries (query.go) and the overlay and attack probes of
// the paper's evaluation (§4; overlay.go, attack.go). internal/scenario
// drives every experiment on either engine.
//
// Architecture: DESIGN.md §9 (deployment engines and the scenario
// layer).
package exp

import (
	"math"
	"time"

	"avmem/internal/audit"
	"avmem/internal/avdist"
	"avmem/internal/avmon"
	"avmem/internal/core"
	"avmem/internal/ids"
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
	// ExpectedMonitors is the mean monitors per target for the
	// distributed monitor (default 8).
	ExpectedMonitors float64
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

// World is a fully wired simulated AVMEM deployment: churn trace,
// monitoring and shuffling services, per-node membership and routers,
// and a shared collector. Deployment wiring lives in deploy.go, the
// ground-truth query surface in query.go.
type World struct {
	Cfg     WorldConfig
	Trace   *trace.Trace
	Sim     *sim.World
	Net     *sim.Network
	PDF     *avdist.PDF
	NStar   float64
	Monitor avmon.Service
	Shuffle *shuffle.Cyclon
	Hashes  *ids.HashCache
	Col     *ops.Collector

	// hosts, members, routers, and forcedDownUntil are parallel slices
	// keyed by trace host index: liveness, drivers, and deliveries run on
	// array probes, with a single id→index map (the trace's) at the API
	// boundary.
	hosts   []ids.NodeID
	members []*core.Membership
	routers []*ops.Router
	// discovery is where every membership counts its discovery work
	// (core.Config.Stats): one struct for the metrics flush to read.
	discovery core.DiscoveryStats
	// flood is the same for every router's flood-path work
	// (ops.RouterConfig.Stats).
	flood ops.FloodStats

	// adv is the Byzantine cohort (nil when honest); auditors and trail
	// are the audit layer (nil slices/pointer when auditing is off).
	adv      *advState
	auditors []*audit.Auditor
	trail    *audit.Trail
	// auditIns is the deployment-shared audit instrument set (nil when
	// Cfg.Metrics is nil).
	auditIns *audit.Instruments

	// mon is the monitoring plumbing: the stable indirection the whole
	// deployment queries plus the pre-noise base SetMonitorNoise rewraps.
	mon *monitorStack
	// forcedDownUntil[h] holds a scenario-injected outage: the virtual
	// time host h's outage lifts (zero = none). Reads are pure — expired
	// entries are swept by an event ForceOffline schedules, never by the
	// liveness check itself, so onlineAt is reentrant.
	forcedDownUntil []time.Duration
	// live is the online bitset onlineAt reads: the current epoch's
	// column of the churn trace minus the forced outages, valid from the
	// (monotone) instant it was built until liveUntil — see syncLive.
	live      []uint64
	liveUntil time.Duration
	// PairIdx memoizes H(x,y) keyed by dense host-index pairs, shared by
	// every membership in the world.
	PairIdx *ids.PairIndexCache

	// avMemo/avValid memoize TrueAvailability per epoch (avEpoch): probe
	// helpers call it O(hosts) times per query, and the underlying trace
	// fold is O(epochs) per call.
	avMemo  []float64
	avValid []bool
	avEpoch int
}

// NewWorld assembles a deployment. The availability PDF handed to the
// predicates is computed from the trace's full-horizon availabilities —
// the "crawler-computed, communicated at pre-run-time" object of §2.1 —
// and N* is the trace's mean online population.
func NewWorld(cfg WorldConfig) (*World, error) {
	if err := cfg.applyDefaults(); err != nil {
		return nil, err
	}
	tr := cfg.Trace
	w := &World{
		Cfg:             cfg,
		Trace:           tr,
		Sim:             sim.NewWorld(cfg.Seed),
		Hashes:          ids.NewHashCache(0),
		Col:             ops.NewCollector(),
		hosts:           tr.HostIDs(),
		members:         make([]*core.Membership, tr.Hosts()),
		routers:         make([]*ops.Router, tr.Hosts()),
		forcedDownUntil: make([]time.Duration, tr.Hosts()),
		live:            make([]uint64, (tr.Hosts()+63)/64),
		avMemo:          make([]float64, tr.Hosts()),
		avValid:         make([]bool, tr.Hosts()),
		avEpoch:         -1,
	}
	pairIdx, err := ids.NewPairIndexCache(w.hosts, 0)
	if err != nil {
		return nil, err
	}
	w.PairIdx = pairIdx
	pdf, err := estimatePDF(tr)
	if err != nil {
		return nil, err
	}
	w.PDF = pdf
	w.NStar = tr.MeanOnline()

	pred, err := buildPredicate(cfg, w.PDF, w.NStar)
	if err != nil {
		return nil, err
	}
	w.Net = sim.NewNetwork(w.Sim, cfg.Latency, w.nodeOnline, 0)
	w.Net.Bind(w.hosts, w.onlineAt)
	mon, err := buildMonitorStack(cfg, tr, w.hosts, w.Sim, w.nodeOnline, w.onlineAt)
	if err != nil {
		return nil, err
	}
	w.mon = mon
	w.Monitor = mon.monitor
	if cfg.Metrics != nil {
		w.Sim.Instrument(cfg.Metrics)
		w.Col.Instrument(cfg.Metrics)
		w.auditIns = audit.NewInstruments(cfg.Metrics)
		flushed := newFlushObs(cfg.Metrics)
		w.Sim.OnFlush(func() {
			flushed.publish(w.discovery, w.Shuffle.ReceivedDropped(), w.flood, w.Net.AddrMemoStats())
		})
	}
	cyc, err := shuffle.NewCyclon(cfg.ViewSize, cfg.ShuffleLen, w.nodeOnline, w.Sim.Rand())
	if err != nil {
		return nil, err
	}
	cyc.UseIndex(tr.HostIndex, w.onlineAt)
	w.Shuffle = cyc
	adv, err := buildAdversaries(cfg.Adversary, tr, cfg.Seed)
	if err != nil {
		return nil, err
	}
	w.adv = adv
	if cfg.Audit != nil {
		w.trail = audit.NewTrail()
		w.auditors = make([]*audit.Auditor, tr.Hosts())
	}
	if err := w.installNodes(pred); err != nil {
		return nil, err
	}
	if w.adv != nil || w.trail != nil {
		// The central shuffle gets the same attack surface and audit
		// seam real shuffle messages give the live engine.
		w.Shuffle.SetTap(shuffleTap(w.adv, tr.HostIndex,
			func(h int) float64 { return w.members[h].SelfClaim() },
			w.auditorAt))
	}
	if err := w.startDrivers(); err != nil {
		return nil, err
	}
	return w, nil
}

// auditorAt returns host h's audit layer (nil when auditing is off).
func (w *World) auditorAt(h int) *audit.Auditor {
	if w.auditors == nil || h < 0 || h >= len(w.auditors) {
		return nil
	}
	return w.auditors[h]
}

// Warmup advances the simulation by d (the paper warms up for 24 hours
// before taking measurements).
func (w *World) Warmup(d time.Duration) { w.Sim.Run(w.Sim.Now() + d) }

// RunFor advances the simulation by d.
func (w *World) RunFor(d time.Duration) { w.Sim.Run(w.Sim.Now() + d) }
