package exp

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"avmem/internal/adversary"
	"avmem/internal/audit"
	"avmem/internal/avdist"
	"avmem/internal/avmon"
	"avmem/internal/core"
	"avmem/internal/ids"
	"avmem/internal/ops"
	"avmem/internal/runtime"
	"avmem/internal/sim"
	"avmem/internal/trace"
)

// This file is the deployment wiring: offline system statistics,
// predicate and monitor assembly, per-node installation, and the
// periodic protocol drivers. The scenario layer perturbs a running
// deployment through ForceOffline and SetMonitorNoise.

// estimatePDF computes the offline system statistics. The predicate PDF
// is the availability distribution of the *online* population — what a
// crawler sampling live nodes measures, and what Theorem 1's proof
// assumes (E[online nodes in da] = N*·p(a)·da). A host with
// availability a is online a fraction a of the time, so it contributes
// weight a to its availability bucket.
//
// Discretization is deliberately coarse (the paper: "a discretized PDF
// distribution created from a small sample set"): a fine-grained
// empirical PDF over ~10³ hosts has holes in its thin tails, and a hole
// means near-zero density, which blows the I.B threshold up to 1 for
// any node whose running availability estimate sweeps through it.
// Coarse buckets plus mild Laplace smoothing keep every density honest.
func estimatePDF(tr *trace.Trace) (*avdist.PDF, error) {
	avail := tr.SmoothedAvailabilities(tr.Epochs() - 1)
	buckets := tr.Hosts() / 25
	if buckets < 10 {
		buckets = 10
	}
	if buckets > 50 {
		buckets = 50
	}
	weights := make([]float64, buckets)
	var total float64
	for _, a := range avail {
		b := int(a * float64(len(weights)))
		if b >= len(weights) {
			b = len(weights) - 1
		}
		weights[b] += a
		total += a
	}
	const smooth = 0.05
	for b := range weights {
		weights[b] += smooth * total / float64(len(weights))
	}
	pdf, err := avdist.FromWeights(weights)
	if err != nil {
		return nil, fmt.Errorf("exp: estimating PDF: %w", err)
	}
	return pdf, nil
}

// buildPredicate assembles the paper's default predicate (I.B + II.B
// with a memoized horizontal threshold) unless the config overrides it.
func buildPredicate(cfg WorldConfig, pdf *avdist.PDF, nStar float64) (*core.Predicate, error) {
	if cfg.Predicate != nil {
		return cfg.Predicate, nil
	}
	hs, err := core.NewCachedByX(core.LogConstantHorizontal{
		C2: cfg.C2, NStar: nStar, Epsilon: cfg.Epsilon, PDF: pdf,
	})
	if err != nil {
		return nil, err
	}
	return core.NewPredicate(cfg.Epsilon, hs,
		core.LogVertical{C1: cfg.C1, NStar: nStar, PDF: pdf})
}

// switchMonitor is the monitoring service every node actually holds: a
// stable indirection whose inner service the scenario layer can swap at
// run time (monitor-degradation ramps) without rewiring memberships.
// It forwards the indexed fast path when the inner service supports it
// (innerIdx is refreshed on every swap), falling back to an identifier
// lookup through the host table otherwise.
type switchMonitor struct {
	inner    avmon.Service
	innerIdx avmon.IndexedService // nil when inner is not indexed
	hosts    []ids.NodeID
	// stable reports that the current inner service answers queries as
	// pure, epoch-constant reads (the noiseless oracle) — the gate for
	// discovery's delta passes. Noise wraps and live ping overlays clear
	// it.
	stable bool
}

var _ avmon.IndexedService = (*switchMonitor)(nil)

// swap replaces the inner service, re-deriving the indexed fast path.
func (s *switchMonitor) swap(svc avmon.Service) {
	s.inner = svc
	s.innerIdx, _ = svc.(avmon.IndexedService)
}

// Availability implements avmon.Service.
func (s *switchMonitor) Availability(id ids.NodeID) (float64, bool) {
	return s.inner.Availability(id)
}

// AvailabilityIdx implements avmon.IndexedService.
func (s *switchMonitor) AvailabilityIdx(h int) (float64, bool) {
	if s.innerIdx != nil {
		return s.innerIdx.AvailabilityIdx(h)
	}
	if h < 0 || h >= len(s.hosts) {
		return 0, false
	}
	return s.inner.Availability(s.hosts[h])
}

// monitorStack is the monitoring plumbing both deployment engines (the
// simulated World and the memnet Cluster) own: the switchable service
// handed to every node, the noiseless base service underneath, and the
// clock/randomness a noise layer needs.
type monitorStack struct {
	monitor    *switchMonitor
	base       avmon.Service
	baseStable bool // base answers pure epoch-constant reads (oracle)
	tr         *trace.Trace
	now        func() time.Duration
	rng        *rand.Rand
}

// epoch implements core.Config.MonitorEpoch for every membership of the
// deployment: the trace epoch, stable only while the active monitor is
// the noiseless oracle (noise wraps draw RNG per query and ping overlays
// drift between queries, so discovery must not carry verdicts across
// them).
func (s *monitorStack) epoch() (int, bool) {
	if !s.monitor.stable {
		return 0, false
	}
	return s.tr.EpochAt(s.now()), true
}

// buildMonitorStack wires the monitoring service: oracle by default,
// optionally noisy/stale, or the full AVMON-style distributed estimator
// — always behind the switchMonitor indirection. sched carries the
// engine's virtual clock, randomness, and the periodic tick the
// distributed monitor's ping overlay runs on.
func buildMonitorStack(cfg WorldConfig, tr *trace.Trace, hosts []ids.NodeID, sched *sim.World,
	nodeOnline func(ids.NodeID) bool, onlineAt func(int) bool) (*monitorStack, error) {
	var base avmon.Service
	if cfg.DistributedMonitor {
		expected := cfg.ExpectedMonitors
		if expected == 0 {
			expected = 8
		}
		dist, err := avmon.NewDistributed(hosts, expected, nodeOnline, 0)
		if err != nil {
			return nil, err
		}
		// hosts is in trace-index order, so the monitor's host indexes
		// coincide with the deployment's liveness indexes.
		dist.UseIndexedLiveness(onlineAt)
		// One event per ping period covers the whole population — the
		// monitoring overlay's cohort tick.
		if err := sched.Every(0, cfg.ProtocolPeriod, nil, dist.TickAll); err != nil {
			return nil, err
		}
		base = dist
	} else {
		oracle, err := avmon.NewOracle(tr, sched.Now)
		if err != nil {
			return nil, err
		}
		base = oracle
	}
	s := &monitorStack{
		monitor:    &switchMonitor{hosts: hosts},
		base:       base,
		baseStable: !cfg.DistributedMonitor,
		tr:         tr,
		now:        sched.Now,
		rng:        sched.Rand(),
	}
	s.monitor.swap(base)
	s.monitor.stable = s.baseStable
	if cfg.MonitorErr > 0 || cfg.MonitorStaleness > 0 {
		if err := s.setNoise(cfg.MonitorErr, cfg.MonitorStaleness); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// setNoise rewraps the base monitoring service with a fresh noise layer
// of the given error half-width and staleness, effective for every
// subsequent query in the deployment. Zero for both restores the
// noiseless base service.
func (s *monitorStack) setNoise(maxErr float64, staleness time.Duration) error {
	if maxErr == 0 && staleness == 0 {
		s.monitor.swap(s.base)
		s.monitor.stable = s.baseStable
		return nil
	}
	noisy, err := avmon.NewNoisy(s.base, maxErr, staleness, s.now, s.rng)
	if err != nil {
		return err
	}
	s.monitor.swap(noisy)
	s.monitor.stable = false
	return nil
}

// SetMonitorNoise swaps the deployment's monitor-noise layer; scenario
// monitor-degradation ramps call this mid-run.
func (w *World) SetMonitorNoise(maxErr float64, staleness time.Duration) error {
	return w.mon.setNoise(maxErr, staleness)
}

// ForceOffline injects an outage: id is treated as offline by the
// network, the shuffling service, the monitor overlay, and the protocol
// drivers until the given virtual time, regardless of its churn trace.
// Scenario churn bursts call this; the trace resumes control when the
// outage lifts. A sweep event scheduled at the lift time clears the
// slot, so liveness reads never mutate state (they must be reentrant:
// the parallel scenario runner executes many worlds concurrently and a
// single world queries liveness from deep inside delivery callbacks).
func (w *World) ForceOffline(id ids.NodeID, until time.Duration) {
	if until <= w.Sim.Now() {
		return
	}
	h := w.Trace.HostIndex(id)
	if h < 0 {
		return
	}
	w.forcedDownUntil[h] = until
	w.liveUntil = 0 // the online bitset predates this outage: rebuild
	w.Sim.At(until, func() {
		// Clear only if no later ForceOffline superseded this outage.
		if w.forcedDownUntil[h] == until {
			w.forcedDownUntil[h] = 0
		}
	})
}

// onlineAt is the hot-path liveness check, by trace host index: the
// churn trace overlaid with scenario-forced outages, read from the
// online bitset — one bit probe, where the trace itself would cost an
// epoch division and a row of its host-major matrix per host. The
// bitset is rebuilt lazily when the clock passes the instant it holds
// until.
func (w *World) onlineAt(h int) bool {
	if now := w.Sim.Now(); now >= w.liveUntil {
		w.syncLive(now)
	}
	return w.live[h>>6]&(1<<uint(h&63)) != 0
}

// syncLive rebuilds the online bitset for virtual time now: bit h is
// set iff the trace has host h up in now's epoch and no forced outage
// covers now. The result holds until the epoch ends or the earliest
// pending outage lifts, whichever comes first; ForceOffline cuts that
// span short. O(hosts), once per epoch or outage change.
func (w *World) syncLive(now time.Duration) {
	tr := w.Trace
	e := tr.EpochAt(now)
	until := time.Duration(math.MaxInt64)
	if e < tr.Epochs()-1 {
		until = time.Duration(e+1) * tr.EpochLength()
	}
	clear(w.live)
	for h, forced := range w.forcedDownUntil {
		if forced > now {
			if forced < until {
				until = forced
			}
		} else if tr.Up(h, e) {
			w.live[h>>6] |= 1 << uint(h&63)
		}
	}
	w.liveUntil = until
}

// nodeOnline is the id-keyed liveness check for API-boundary callers;
// hot paths resolve the host index once and use onlineAt.
func (w *World) nodeOnline(id ids.NodeID) bool {
	h := w.Trace.HostIndex(id)
	return h >= 0 && w.onlineAt(h)
}

// installNodes creates per-node state: membership, router, network
// handler, and the bootstrap join. Each node's trace row index is
// resolved here, once, and captured by its liveness closure.
func (w *World) installNodes(pred *core.Predicate) error {
	// One band-census estimator shared by every router: N* × the
	// availability PDF's interval mass, arming the PDF sanity checks on
	// merged aggregation partials.
	pdf, nstar := w.PDF, w.NStar
	bandCensus := func(lo, hi float64) float64 {
		return nstar * pdf.IntervalMass(lo, math.Min(hi, 1))
	}
	for h, id := range w.hosts {
		memCfg := core.Config{
			Predicate:     pred,
			Monitor:       w.Monitor,
			Hashes:        w.Hashes,
			Clock:         w.Sim.Now,
			VerifyCushion: w.Cfg.Cushion,
			PairIdx:       w.PairIdx,
			SelfIdx:       int32(h),
			MonitorIdx:    w.mon.monitor,
			MonitorEpoch:  w.mon.epoch,
			Stats:         &w.discovery,
		}
		var auditor *audit.Auditor
		if w.auditors != nil {
			slot := &w.members[h] // the auditor's SelfInfo resolves lazily
			a, err := audit.New(audit.Config{
				Self:      id,
				Params:    *w.Cfg.Audit,
				Predicate: pred,
				Monitor:   w.Monitor,
				SelfInfo:  func() core.NodeInfo { return (*slot).SelfInfo() },
				Clock:     w.Sim.Now,
				Hashes:    w.Hashes,
				Trail:     w.trail,
				Obs:       w.auditIns,
				// The host universe: senders are audited by the index their
				// address memo carries, checked against PairIdx.
				PairIdx:    w.PairIdx,
				SelfIdx:    int32(h),
				IndexOf:    w.Trace.HostIndex,
				MonitorIdx: w.mon.monitor,
			})
			if err != nil {
				return err
			}
			auditor = a
			w.auditors[h] = a
			memCfg.Blocked = a.Blocked
		}
		m, err := core.NewMembership(id, memCfg)
		if err != nil {
			return err
		}
		w.members[h] = m

		h := h
		env, err := runtime.NewVirtual(runtime.VirtualConfig{
			// The host index is resolved here, once: it rides on every
			// message this node sends.
			Self:      ids.AddrAt(id, int32(h)),
			Scheduler: w.Sim,
			Fabric:    runtime.NetFabric(w.Net),
			Online:    func() bool { return w.onlineAt(h) },
			RNG:       w.Sim.Rand(),
		})
		if err != nil {
			return err
		}
		// The adversary interceptor wraps the env, so a Byzantine host's
		// router misbehaves on the wire exactly like a Byzantine live
		// node (Wrap is the identity for honest hosts).
		wenv := adversary.Wrap(env, w.adv.behavior(h))
		routerCfg := ops.RouterConfig{
			Membership:    m,
			Env:           wenv,
			Collector:     w.Col,
			VerifyInbound: w.Cfg.VerifyInbound,
			BandCensus:    bandCensus,
			OpTrace:       w.Cfg.OpTrace,
			Stats:         &w.flood,
		}
		if auditor != nil {
			routerCfg.Auditor = auditor
		}
		r, err := ops.NewRouter(routerCfg)
		if err != nil {
			return err
		}
		w.routers[h] = r
		if err := wenv.Register(r.HandleMessage); err != nil {
			return err
		}

		w.Shuffle.Join(id, w.randomSeeds(id, 4))
	}
	return nil
}

// driverBuckets is the cohort count per protocol period: per-node
// stagger offsets are bucketed to period/driverBuckets granularity, so
// one recurring event drives a whole cohort instead of one event (and
// one closure chain) per node. 64 buckets keep the offered load spread
// to ≤ 1.6% of the period per tick.
const driverBuckets = 64

// startDrivers schedules the periodic protocol work as cohort ticks:
// every node draws a stagger offset exactly as before, but nodes whose
// offsets land in the same bucket share one recurring event that sweeps
// their host indexes. The system still does not tick in lockstep — the
// stagger survives at bucket granularity — while the scheduler carries
// 2×driverBuckets periodic events instead of 2×N.
func (w *World) startDrivers() error {
	cfg := w.Cfg
	disc := make([][]int32, driverBuckets)
	refresh := make([][]int32, driverBuckets)
	for h := range w.hosts {
		d := w.Sim.Rand().Int63n(int64(cfg.ProtocolPeriod))
		b := int(d * driverBuckets / int64(cfg.ProtocolPeriod))
		disc[b] = append(disc[b], int32(h))
		r := w.Sim.Rand().Int63n(int64(cfg.RefreshPeriod))
		rb := int(r * driverBuckets / int64(cfg.RefreshPeriod))
		refresh[rb] = append(refresh[rb], int32(h))
	}
	for b, cohort := range disc {
		if len(cohort) == 0 {
			continue
		}
		cohort := cohort
		offset := time.Duration(int64(b) * int64(cfg.ProtocolPeriod) / driverBuckets)
		if err := w.Sim.Every(offset, cfg.ProtocolPeriod, nil, func() {
			w.discoverCohort(cohort)
		}); err != nil {
			return err
		}
	}
	for b, cohort := range refresh {
		if len(cohort) == 0 {
			continue
		}
		cohort := cohort
		offset := time.Duration(int64(b) * int64(cfg.RefreshPeriod) / driverBuckets)
		if err := w.Sim.Every(offset, cfg.RefreshPeriod, nil, func() {
			for _, h := range cohort {
				if w.onlineAt(int(h)) {
					w.members[h].Refresh()
				}
			}
		}); err != nil {
			return err
		}
	}
	return nil
}

// discoverCohort runs one discovery/shuffle round for every online node
// of a cohort; discovery reads each node's view, memo words included, in
// place.
func (w *World) discoverCohort(cohort []int32) {
	for _, h := range cohort {
		if !w.onlineAt(int(h)) {
			continue
		}
		if w.Shuffle.ViewLenIdx(int(h)) == 0 {
			// Rejoin after an outage emptied the view: bootstrap anew.
			id := w.hosts[h]
			w.Shuffle.Join(id, w.randomSeeds(id, 4))
		}
		w.Shuffle.TickIdx(int(h))
		codes, memo := w.Shuffle.ViewSlots(int(h))
		w.members[h].DiscoverView(codes, memo, w.Shuffle.StrayIDs())
	}
}

// randomSeeds picks up to n distinct random hosts other than self — the
// bootstrap-server story for (re)joining nodes. Draws are rejection-
// sampled with a bounded attempt budget (duplicates and self are
// rejected); if the budget runs dry — tiny populations — the remainder
// is filled by a deterministic scan, so the call can neither return the
// same host twice nor spin.
func (w *World) randomSeeds(self ids.NodeID, n int) []ids.NodeID {
	return pickSeeds(w.Sim.Rand(), w.hosts, self, n)
}

// pickSeeds picks up to n distinct random hosts other than self from
// hosts, using rng; both deployment engines bootstrap (re)joining nodes
// through it.
func pickSeeds(rng *rand.Rand, hosts []ids.NodeID, self ids.NodeID, n int) []ids.NodeID {
	if max := len(hosts) - 1; n > max {
		n = max
	}
	if n <= 0 {
		return nil
	}
	seeds := make([]ids.NodeID, 0, n)
	contains := func(id ids.NodeID) bool {
		for _, s := range seeds {
			if s == id {
				return true
			}
		}
		return false
	}
	for attempts := 8 * n; len(seeds) < n && attempts > 0; attempts-- {
		cand := hosts[rng.Intn(len(hosts))]
		if cand != self && !contains(cand) {
			seeds = append(seeds, cand)
		}
	}
	for _, cand := range hosts {
		if len(seeds) >= n {
			break
		}
		if cand != self && !contains(cand) {
			seeds = append(seeds, cand)
		}
	}
	return seeds
}
