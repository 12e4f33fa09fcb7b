package exp

import (
	"math"
	"time"

	"avmem/internal/audit"
	"avmem/internal/core"
	"avmem/internal/ids"
	"avmem/internal/ops"
)

// This file is the ground-truth surface of a deployment: liveness (the
// churn trace overlaid with scenario-forced outages), the queries the
// probes and the scenario engine read the world through instead of
// reaching into the wiring, and the two ways a scenario perturbs a
// running deployment, ForceOffline and SetMonitorNoise.

// ForceOffline injects an outage: id is treated as offline by the
// network, the shuffling service, the monitor overlay, and its own
// protocol drivers or timers until the given virtual time, regardless of
// its churn trace. Scenario churn bursts call this; the trace resumes
// control when the outage lifts. Only the sweep event scheduled at the
// lift time clears the slot; a liveness read may rebuild the online
// bitset, a cache of the slots and the trace, but never clears an
// outage. A deployment is single-threaded, so reads from inside delivery
// callbacks see one consistent state.
func (d *Deployment) ForceOffline(id ids.NodeID, until time.Duration) {
	if until <= d.Sim.Now() {
		return
	}
	h := d.Trace.HostIndex(id)
	if h < 0 {
		return
	}
	d.forcedDownUntil[h] = until
	d.liveUntil = 0 // the online bitset predates this outage: rebuild
	d.Sim.At(until, func() {
		// Clear only if no later ForceOffline superseded this outage.
		if d.forcedDownUntil[h] == until {
			d.forcedDownUntil[h] = 0
		}
	})
}

// SetMonitorNoise swaps the deployment's monitor-noise layer; scenario
// monitor-degradation ramps call this mid-run.
func (d *Deployment) SetMonitorNoise(maxErr float64, staleness time.Duration) error {
	return d.mon.setNoise(maxErr, staleness)
}

// onlineAt is the hot-path liveness check, by trace host index: the
// churn trace overlaid with scenario-forced outages, read from the
// online bitset — one bit probe, where the trace itself would cost an
// epoch division and a row of its host-major matrix per host. The
// bitset is rebuilt lazily when the clock passes the instant it holds
// until.
func (d *Deployment) onlineAt(h int) bool {
	if now := d.Sim.Now(); now >= d.liveUntil {
		d.syncLive(now)
	}
	return d.live[h>>6]&(1<<uint(h&63)) != 0
}

// syncLive rebuilds the online bitset for virtual time now: bit h is
// set iff the trace has host h up in now's epoch and no forced outage
// covers now. The result holds until the epoch ends or the earliest
// pending outage lifts, whichever comes first; ForceOffline cuts that
// span short. O(hosts), once per epoch or outage change.
func (d *Deployment) syncLive(now time.Duration) {
	tr := d.Trace
	e := tr.EpochAt(now)
	until := time.Duration(math.MaxInt64)
	if e < tr.Epochs()-1 {
		until = time.Duration(e+1) * tr.EpochLength()
	}
	clear(d.live)
	for h, forced := range d.forcedDownUntil {
		if forced > now {
			if forced < until {
				until = forced
			}
		} else if tr.Up(h, e) {
			d.live[h>>6] |= 1 << uint(h&63)
		}
	}
	d.liveUntil = until
}

// Online reports whether a node is online at the current virtual time;
// hot paths resolve the host index once and use onlineAt.
func (d *Deployment) Online(id ids.NodeID) bool {
	h := d.Trace.HostIndex(id)
	return h >= 0 && d.onlineAt(h)
}

// Hosts returns all host identifiers (trace-index order).
func (d *Deployment) Hosts() []ids.NodeID { return d.hosts }

// OnlineHosts returns all currently online host identifiers.
func (d *Deployment) OnlineHosts() []ids.NodeID {
	out := make([]ids.NodeID, 0, len(d.hosts)/2)
	for h, id := range d.hosts {
		if d.onlineAt(h) {
			out = append(out, id)
		}
	}
	return out
}

// Membership returns a node's membership state (nil if unknown).
func (d *Deployment) Membership(id ids.NodeID) *core.Membership {
	h := d.Trace.HostIndex(id)
	if h < 0 {
		return nil
	}
	return d.members[h]
}

// TrueAvailability returns the noiseless long-term availability of a
// node at the current virtual time (the smoothed estimator an ideal
// monitor reports, regardless of configured monitor noise). Experiments
// use it as ground truth for bands, targets, and eligibility.
func (d *Deployment) TrueAvailability(id ids.NodeID) float64 {
	h := d.Trace.HostIndex(id)
	if h < 0 {
		return 0
	}
	return d.TrueAvailabilityAt(h)
}

// TrueAvailabilityAt is TrueAvailability keyed by trace host index,
// memoized per epoch: the trace fold behind it is O(epochs) per call and
// probe helpers issue it O(hosts) times per query.
func (d *Deployment) TrueAvailabilityAt(h int) float64 {
	e := d.Trace.EpochAt(d.Sim.Now())
	if e != d.avEpoch {
		clear(d.avValid)
		d.avEpoch = e
	}
	if !d.avValid[h] {
		d.avMemo[h] = d.Trace.SmoothedAvailability(h, e)
		d.avValid[h] = true
	}
	return d.avMemo[h]
}

// InBand returns the host indexes of the online nodes whose true
// availability lies in [lo, hi), in host order. The slice is the
// deployment's own, reused by the next call, so a query per operation
// allocates nothing.
func (d *Deployment) InBand(lo, hi float64) []int {
	d.band = d.band[:0]
	for h := range d.hosts {
		if !d.onlineAt(h) {
			continue
		}
		if av := d.TrueAvailabilityAt(h); av >= lo && av < hi {
			d.band = append(d.band, h)
		}
	}
	return d.band
}

// EligibleFor counts online nodes whose true availability lies inside
// the operation target — the reliability/spam denominator.
func (d *Deployment) EligibleFor(t ops.Target) int {
	n := 0
	for h := range d.hosts {
		if d.onlineAt(h) && t.Contains(d.TrueAvailabilityAt(h)) {
			n++
		}
	}
	return n
}

// PickInitiator selects a random online node from the availability band
// [lo, hi); ok is false when the band is empty.
func (d *Deployment) PickInitiator(lo, hi float64) (ids.NodeID, bool) {
	band := d.InBand(lo, hi)
	if len(band) == 0 {
		return ids.Nil, false
	}
	return d.hosts[band[d.Rand.Intn(len(band))]], true
}

// MeanDegree returns the mean AVMEM neighbor count across online nodes
// (used to match the random-overlay baseline's degree in Figure 10).
func (d *Deployment) MeanDegree() float64 {
	total, online := 0, 0
	for h := range d.hosts {
		if !d.onlineAt(h) {
			continue
		}
		online++
		total += d.members[h].Size()
	}
	if online == 0 {
		return 0
	}
	return float64(total) / float64(online)
}

// Adversaries returns the configured Byzantine cohort (nil when the
// deployment is honest).
func (d *Deployment) Adversaries() []ids.NodeID { return d.adv.cohort() }

// EngagedAdversaries returns the cohort members that emitted traffic
// while armed — the detection-rate denominator (an adversary offline for
// a whole attack never misbehaved and cannot be observed).
func (d *Deployment) EngagedAdversaries() []ids.NodeID { return d.adv.engagedCohort() }

// SetAdversariesActive arms or disarms the cohort's behaviors (scenario
// onset/offset events).
func (d *Deployment) SetAdversariesActive(active bool) { d.adv.setActive(active) }

// AuditTrail returns the deployment-wide eviction registry (nil when
// auditing is off).
func (d *Deployment) AuditTrail() *audit.Trail { return d.trail }
