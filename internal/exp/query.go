package exp

import (
	"avmem/internal/audit"
	"avmem/internal/core"
	"avmem/internal/ids"
	"avmem/internal/ops"
)

// This file is the ground-truth query surface of a deployment: the
// probes and the scenario engine read the world through it instead of
// reaching into the wiring.

// Hosts returns all host identifiers.
func (w *World) Hosts() []ids.NodeID { return w.hosts }

// Membership returns the membership state of a node (nil if unknown).
func (w *World) Membership(id ids.NodeID) *core.Membership {
	h := w.Trace.HostIndex(id)
	if h < 0 {
		return nil
	}
	return w.members[h]
}

// Router returns the router of a node (nil if unknown).
func (w *World) Router(id ids.NodeID) *ops.Router {
	h := w.Trace.HostIndex(id)
	if h < 0 {
		return nil
	}
	return w.routers[h]
}

// Online reports whether a node is online at the current virtual time
// (churn trace overlaid with scenario-forced outages).
func (w *World) Online(id ids.NodeID) bool { return w.nodeOnline(id) }

// OnlineHosts returns all currently online host identifiers.
func (w *World) OnlineHosts() []ids.NodeID {
	out := make([]ids.NodeID, 0, len(w.hosts)/2)
	for h, id := range w.hosts {
		if w.onlineAt(h) {
			out = append(out, id)
		}
	}
	return out
}

// TrueAvailability returns the noiseless long-term availability of a
// node at the current virtual time (the smoothed estimator an ideal
// monitor reports, regardless of configured monitor noise). Experiments
// use it as ground truth for bands, targets, and eligibility.
func (w *World) TrueAvailability(id ids.NodeID) float64 {
	h := w.Trace.HostIndex(id)
	if h < 0 {
		return 0
	}
	return w.trueAvailabilityIdx(h)
}

// trueAvailabilityIdx is TrueAvailability keyed by host index, memoized
// per epoch: the trace fold behind it is O(epochs) per call and probe
// helpers issue it O(hosts) times per query.
func (w *World) trueAvailabilityIdx(h int) float64 {
	e := w.Trace.EpochAt(w.Sim.Now())
	if e != w.avEpoch {
		for i := range w.avValid {
			w.avValid[i] = false
		}
		w.avEpoch = e
	}
	if !w.avValid[h] {
		w.avMemo[h] = w.Trace.SmoothedAvailability(h, e)
		w.avValid[h] = true
	}
	return w.avMemo[h]
}

// OnlineInBand returns online nodes whose true availability lies in
// [lo, hi).
func (w *World) OnlineInBand(lo, hi float64) []ids.NodeID {
	out := make([]ids.NodeID, 0, 64)
	for h, id := range w.hosts {
		if !w.onlineAt(h) {
			continue
		}
		av := w.trueAvailabilityIdx(h)
		if av >= lo && av < hi {
			out = append(out, id)
		}
	}
	return out
}

// EligibleFor counts online nodes whose true availability lies inside
// the operation target — the reliability/spam denominator.
func (w *World) EligibleFor(t ops.Target) int {
	n := 0
	for h := range w.hosts {
		if w.onlineAt(h) && t.Contains(w.trueAvailabilityIdx(h)) {
			n++
		}
	}
	return n
}

// PickInitiator selects a random online node from the availability band
// [lo, hi); ok is false when the band is empty.
func (w *World) PickInitiator(lo, hi float64) (ids.NodeID, bool) {
	band := w.OnlineInBand(lo, hi)
	if len(band) == 0 {
		return ids.Nil, false
	}
	return band[w.Sim.Rand().Intn(len(band))], true
}

// CoarseView implements Deployment: the node's central-shuffle view.
func (w *World) CoarseView(id ids.NodeID) []ids.NodeID {
	return w.Shuffle.View(id)
}

// Adversaries implements Deployment.
func (w *World) Adversaries() []ids.NodeID { return w.adv.cohort() }

// EngagedAdversaries implements Deployment.
func (w *World) EngagedAdversaries() []ids.NodeID { return w.adv.engagedCohort() }

// SetAdversariesActive implements Deployment.
func (w *World) SetAdversariesActive(active bool) { w.adv.setActive(active) }

// AuditTrail implements Deployment.
func (w *World) AuditTrail() *audit.Trail { return w.trail }

// Auditor returns host id's audit layer (nil if unknown or auditing is
// off) — harnesses inspect suspicion and local blacklists through it.
func (w *World) Auditor(id ids.NodeID) *audit.Auditor {
	return w.auditorAt(w.Trace.HostIndex(id))
}

// MeanDegree returns the mean AVMEM neighbor count across online nodes
// (used to match the random-overlay baseline's degree in Figure 10).
func (w *World) MeanDegree() float64 {
	total, online := 0, 0
	for h := range w.hosts {
		if !w.onlineAt(h) {
			continue
		}
		online++
		total += w.members[h].Size()
	}
	if online == 0 {
		return 0
	}
	return float64(total) / float64(online)
}
