// Package avmon provides the availability monitoring service AVMEM
// consumes as a black box (paper §3.1): a service that can be queried
// for the long-term availability of any node, returning answers that
// are "reasonably accurate and reasonably consistent over time".
//
// Three implementations cover the accuracy spectrum:
//
//   - Oracle: exact trace-derived availability — the idealized monitor.
//   - Noisy: wraps any Service with bounded error and staleness, the
//     knob behind the paper's attack analysis (Figures 5–6 study how
//     inaccurate and cached availability information affects predicate
//     verification).
//   - Distributed: an AVMON-style monitoring overlay in which each node
//     is watched by a consistent, hash-selected set of monitors that
//     ping it periodically; queries aggregate the monitors' empirical
//     estimates. This is the deployable story (Morales & Gupta,
//     ICDCS 2007) and converges to the oracle as pings accumulate.
//
// Architecture: DESIGN.md §7 (monitoring and shuffling services).
package avmon

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"avmem/internal/ids"
	"avmem/internal/trace"
)

// Service answers availability queries. Implementations must be cheap
// to query: the discovery sub-protocol calls this once per coarse-view
// entry per protocol period.
type Service interface {
	// Availability returns the long-term availability of target in
	// [0,1], and whether the service knows the target at all.
	Availability(target ids.NodeID) (float64, bool)
}

// IndexedService is a Service that additionally answers by dense host
// index, skipping the identifier lookup — the fast path discovery uses
// when candidates already carry their index.
type IndexedService interface {
	Service
	// AvailabilityIdx is Availability for the host at index h in the
	// service's universe (the churn trace's host order).
	AvailabilityIdx(h int) (float64, bool)
}

// Oracle reports long-term availability computed from the churn trace
// at the current virtual time, using the add-one smoothed estimator
// (up+1)/(n+2): the value an ideal monitoring service would report. It
// converges to the raw uptime fraction as observations accumulate while
// avoiding the degenerate 0.0/1.0 reports of young histories.
type Oracle struct {
	tr  *trace.Trace
	now func() time.Duration
	// avail[h] memoizes per-host availability for the current epoch.
	epoch int
	memo  []float64
	valid []bool
}

var _ Service = (*Oracle)(nil)

// NewOracle builds an oracle over tr; now supplies the current virtual
// time (e.g. sim.World.Now).
func NewOracle(tr *trace.Trace, now func() time.Duration) (*Oracle, error) {
	if tr == nil {
		return nil, fmt.Errorf("avmon: nil trace")
	}
	if now == nil {
		return nil, fmt.Errorf("avmon: nil clock")
	}
	return &Oracle{
		tr:    tr,
		now:   now,
		epoch: -1,
		memo:  make([]float64, tr.Hosts()),
		valid: make([]bool, tr.Hosts()),
	}, nil
}

// Availability implements Service.
func (o *Oracle) Availability(target ids.NodeID) (float64, bool) {
	h := o.tr.HostIndex(target)
	if h < 0 {
		return 0, false
	}
	return o.AvailabilityIdx(h)
}

// AvailabilityIdx implements IndexedService: the oracle answer for the
// host at trace index h, with no identifier lookup.
func (o *Oracle) AvailabilityIdx(h int) (float64, bool) {
	if h < 0 || h >= len(o.valid) {
		return 0, false
	}
	e := o.tr.EpochAt(o.now())
	if e != o.epoch {
		o.epoch = e
		for i := range o.valid {
			o.valid[i] = false
		}
	}
	if !o.valid[h] {
		o.memo[h] = o.tr.SmoothedAvailability(h, e)
		o.valid[h] = true
	}
	return o.memo[h], true
}

var _ IndexedService = (*Oracle)(nil)

// Noisy wraps a Service with bounded symmetric error and snapshot
// staleness: a queried value is sampled from the inner service at most
// once per staleness window and perturbed by a uniform error in
// [−maxErr, +maxErr] that is fixed for the lifetime of the snapshot
// (consistently wrong, not white noise — matching how a monitoring
// overlay misestimates).
type Noisy struct {
	inner     Service
	maxErr    float64
	staleness time.Duration
	now       func() time.Duration
	rng       *rand.Rand
	snaps     map[ids.NodeID]noisySnap
}

type noisySnap struct {
	value float64
	taken time.Duration
}

var _ Service = (*Noisy)(nil)

// NewNoisy wraps inner. maxErr is the error half-width in availability
// units; staleness is how long a snapshot is served before resampling
// (0 means always fresh); now supplies virtual time; rng drives error
// draws.
func NewNoisy(inner Service, maxErr float64, staleness time.Duration, now func() time.Duration, rng *rand.Rand) (*Noisy, error) {
	if inner == nil {
		return nil, fmt.Errorf("avmon: nil inner service")
	}
	if maxErr < 0 || maxErr > 1 {
		return nil, fmt.Errorf("avmon: maxErr must be in [0,1], got %v", maxErr)
	}
	if staleness < 0 {
		return nil, fmt.Errorf("avmon: negative staleness %v", staleness)
	}
	if now == nil {
		return nil, fmt.Errorf("avmon: nil clock")
	}
	if rng == nil {
		return nil, fmt.Errorf("avmon: nil rng")
	}
	return &Noisy{
		inner:     inner,
		maxErr:    maxErr,
		staleness: staleness,
		now:       now,
		rng:       rng,
		snaps:     make(map[ids.NodeID]noisySnap, 2048),
	}, nil
}

// Availability implements Service.
func (n *Noisy) Availability(target ids.NodeID) (float64, bool) {
	t := n.now()
	if snap, ok := n.snaps[target]; ok && n.staleness > 0 && t-snap.taken < n.staleness {
		return snap.value, true
	}
	v, ok := n.inner.Availability(target)
	if !ok {
		return 0, false
	}
	if n.maxErr > 0 {
		v += (2*n.rng.Float64() - 1) * n.maxErr
	}
	v = ids.Clamp01(v)
	n.snaps[target] = noisySnap{value: v, taken: t}
	return v, true
}

// Distributed is the AVMON-style monitoring overlay. Each target t is
// monitored by every node m with PairHash(m, t) <= monitorFrac — a
// consistent, verifiable relation exactly analogous to the AVMEM
// predicate itself. Online monitors ping their targets every ping
// period; a target's availability estimate is the fraction of pings it
// answered, and queries return the median estimate across its monitors.
//
// State is index-based: the monitor relation and every (monitor, target)
// ping counter live in flat slices keyed by host index, so a ping round
// is a deterministic sweep of array reads — no map traffic, no
// per-edge allocation — and liveness can be probed through an
// index-based fast path (UseIndexedLiveness).
type Distributed struct {
	hosts    []ids.NodeID
	idx      map[ids.NodeID]int32
	online   func(ids.NodeID) bool
	onlineAt func(i int) bool // nil → fall back to online(hosts[i])
	// monitorsOf[t] lists the monitor indexes of target t; the ping
	// counters of target t's k-th monitor live at edgeOff[t]+k.
	monitorsOf [][]int32
	edgeOff    []int
	sent, acks []int32
	minPings   int
	scratch    []float64 // estimate buffer reused across queries
}

var _ Service = (*Distributed)(nil)

// NewDistributed builds the monitoring overlay over the given host
// population. expectedMonitors sets the mean number of monitors per
// target (the paper's AVMON uses a small constant); online reports
// liveness (nil means always online); minPings is how many pings a
// monitor needs before its estimate counts (<= 0 defaults to 3).
func NewDistributed(hosts []ids.NodeID, expectedMonitors float64, online func(ids.NodeID) bool, minPings int) (*Distributed, error) {
	if len(hosts) == 0 {
		return nil, fmt.Errorf("avmon: no hosts")
	}
	if expectedMonitors <= 0 {
		return nil, fmt.Errorf("avmon: expectedMonitors must be positive, got %v", expectedMonitors)
	}
	if online == nil {
		online = func(ids.NodeID) bool { return true }
	}
	if minPings <= 0 {
		minPings = 3
	}
	frac := expectedMonitors / float64(len(hosts))
	if frac > 1 {
		frac = 1
	}
	d := &Distributed{
		hosts:      append([]ids.NodeID(nil), hosts...),
		idx:        make(map[ids.NodeID]int32, len(hosts)),
		online:     online,
		monitorsOf: make([][]int32, len(hosts)),
		edgeOff:    make([]int, len(hosts)+1),
		minPings:   minPings,
	}
	for i, h := range d.hosts {
		d.idx[h] = int32(i)
	}
	// The monitor relation is consistent: it depends only on identifier
	// hashes, so any third party could verify who monitors whom.
	edges := 0
	for t, target := range d.hosts {
		d.edgeOff[t] = edges
		for m, monitor := range d.hosts {
			if m == t {
				continue
			}
			if ids.PairHash(monitor, target) <= frac {
				d.monitorsOf[t] = append(d.monitorsOf[t], int32(m))
				edges++
			}
		}
	}
	d.edgeOff[len(d.hosts)] = edges
	d.sent = make([]int32, edges)
	d.acks = make([]int32, edges)
	return d, nil
}

// UseIndexedLiveness switches liveness probes to host indexes: host i
// (in the order of the hosts slice given to NewDistributed) is online
// iff onlineAt(i). Ping rounds then run entirely on array reads.
func (d *Distributed) UseIndexedLiveness(onlineAt func(i int) bool) {
	d.onlineAt = onlineAt
}

// up reports liveness of host index i through the fast path when bound.
func (d *Distributed) up(i int32) bool {
	if d.onlineAt != nil {
		return d.onlineAt(int(i))
	}
	return d.online(d.hosts[i])
}

// Monitors returns the consistent monitor set of target in deterministic
// (host-index) order; nil for an unknown target.
func (d *Distributed) Monitors(target ids.NodeID) []ids.NodeID {
	t, ok := d.idx[target]
	if !ok {
		return nil
	}
	ms := d.monitorsOf[t]
	out := make([]ids.NodeID, len(ms))
	for i, m := range ms {
		out[i] = d.hosts[m]
	}
	return out
}

// TickAll performs one ping round: every online monitor pings each of
// its targets and records whether the target answered. Call this once
// per ping period from the simulation or runtime driver; one call
// covers the whole population (the monitoring overlay's cohort tick).
func (d *Distributed) TickAll() {
	for t := range d.hosts {
		monitors := d.monitorsOf[t]
		if len(monitors) == 0 {
			continue
		}
		targetUp := d.up(int32(t))
		off := d.edgeOff[t]
		for k, m := range monitors {
			if !d.up(m) {
				continue
			}
			e := off + k
			d.sent[e]++
			if targetUp {
				d.acks[e]++
			}
		}
	}
}

// Availability implements Service: the median of the per-monitor
// empirical estimates with at least minPings observations.
func (d *Distributed) Availability(target ids.NodeID) (float64, bool) {
	t, ok := d.idx[target]
	if !ok {
		return 0, false
	}
	ests := d.scratch[:0]
	off := d.edgeOff[t]
	for k := range d.monitorsOf[t] {
		e := off + k
		if int(d.sent[e]) < d.minPings {
			continue
		}
		ests = append(ests, float64(d.acks[e])/float64(d.sent[e]))
	}
	d.scratch = ests[:0]
	if len(ests) == 0 {
		return 0, false
	}
	sort.Float64s(ests)
	mid := len(ests) / 2
	if len(ests)%2 == 1 {
		return ests[mid], true
	}
	return (ests[mid-1] + ests[mid]) / 2, true
}

// Static is a fixed map-backed Service, convenient for unit tests and
// for bootstrapping live deployments from a crawler dump.
type Static map[ids.NodeID]float64

var _ Service = Static(nil)

// Availability implements Service.
func (s Static) Availability(target ids.NodeID) (float64, bool) {
	v, ok := s[target]
	return v, ok
}

// AgedOracle reports exponentially aged availability from the churn
// trace: recent behaviour weighs more than distant history (the "aged"
// variant of §3.1). Alpha in (0,1] is the per-epoch weight of the most
// recent observation; small alpha approaches the long-term estimator,
// large alpha tracks recent sessions.
type AgedOracle struct {
	tr    *trace.Trace
	now   func() time.Duration
	alpha float64
}

var _ Service = (*AgedOracle)(nil)

// NewAgedOracle builds the aged-availability oracle.
func NewAgedOracle(tr *trace.Trace, now func() time.Duration, alpha float64) (*AgedOracle, error) {
	if tr == nil {
		return nil, fmt.Errorf("avmon: nil trace")
	}
	if now == nil {
		return nil, fmt.Errorf("avmon: nil clock")
	}
	if alpha <= 0 || alpha > 1 {
		return nil, fmt.Errorf("avmon: alpha must be in (0,1], got %v", alpha)
	}
	return &AgedOracle{tr: tr, now: now, alpha: alpha}, nil
}

// Availability implements Service.
func (o *AgedOracle) Availability(target ids.NodeID) (float64, bool) {
	h := o.tr.HostIndex(target)
	if h < 0 {
		return 0, false
	}
	return o.tr.AgedAvailability(h, o.tr.EpochAt(o.now()), o.alpha), true
}
