package exp

import (
	"fmt"
	"math/rand"
	"time"

	"avmem/internal/avdist"
	"avmem/internal/avmon"
	"avmem/internal/core"
	"avmem/internal/ids"
	"avmem/internal/sim"
	"avmem/internal/trace"
)

// This file is the wiring both engines share: offline system
// statistics, predicate and monitor assembly, and bootstrap seeds.

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

// monitorStack is the monitoring plumbing a deployment owns: the
// switchable service handed to every host, the noiseless base service
// underneath, and the clock/randomness a noise layer needs.
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
	onlineAt func(int) bool) (*monitorStack, error) {
	var base avmon.Service
	if cfg.DistributedMonitor {
		expected := cfg.ExpectedMonitors
		if expected == 0 {
			expected = 8
		}
		// hosts is in trace-index order, so the monitor's host indexes
		// coincide with the deployment's liveness indexes.
		dist, err := avmon.NewDistributed(hosts, expected, onlineAt, 0)
		if err != nil {
			return nil, err
		}
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

// pickSeeds picks up to n distinct random hosts other than self from
// hosts, using rng; both engines bootstrap (re)joining nodes through it.
// Draws are rejection-sampled with a bounded attempt budget (duplicates
// and self are rejected); if the budget runs dry — tiny populations —
// the remainder is filled by a deterministic scan, so the call can
// neither return the same host twice nor spin.
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

// nodeSeed derives a node's private RNG seed from the deployment seed
// and the node's trace index (a splitmix-style spread keeps streams
// uncorrelated across nodes and seeds).
func nodeSeed(seed int64, h int) int64 {
	z := uint64(seed) + uint64(h+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}
