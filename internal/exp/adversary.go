package exp

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"avmem/internal/adversary"
	"avmem/internal/audit"
	"avmem/internal/core"
	"avmem/internal/ids"
	"avmem/internal/shuffle"
	"avmem/internal/trace"
)

// This file is the adversary-and-audit wiring shared by both deployment
// engines: cohort selection, per-node behavior construction, the
// simulator's shuffle-exchange tap, and the Deployment-level probes
// (overlay bias, eviction latency) the scenario engine and experiments
// read.

// AdversaryConfig parameterizes the Byzantine cohort of a deployment.
type AdversaryConfig struct {
	// Fraction of the population that misbehaves, in (0, 0.5].
	Fraction float64
	// BandLo/BandHi restrict cohort selection to hosts whose long-term
	// availability lies in [BandLo, BandHi) — attackers are usually
	// modeled as reasonably available nodes (an offline adversary harms
	// nobody). Zero BandHi means no upper bound.
	BandLo, BandHi float64
	// Profile is the behavior mix every cohort member runs.
	Profile adversary.Profile
	// ActiveAtStart arms the behaviors immediately; otherwise they stay
	// dormant until SetAdversariesActive(true) (a scenario onset event).
	ActiveAtStart bool
	// SelectAt is the virtual time whose availability estimates drive
	// band selection (zero = end of trace). The scenario engine passes
	// its warmup end, so the band reflects what the monitor reports
	// while the attack actually runs — availabilities are not
	// stationary across a multi-day trace.
	SelectAt time.Duration
}

func (c *AdversaryConfig) validate() error {
	if c.Fraction <= 0 || c.Fraction > 0.5 {
		return fmt.Errorf("exp: adversary fraction must be in (0,0.5], got %v", c.Fraction)
	}
	if c.BandLo < 0 || c.BandLo > 1 {
		return fmt.Errorf("exp: adversary band_lo must be in [0,1], got %v", c.BandLo)
	}
	if c.BandHi != 0 && (c.BandHi <= c.BandLo || c.BandHi > 1.01) {
		return fmt.Errorf("exp: adversary band_hi %v must exceed band_lo %v and be at most 1.01", c.BandHi, c.BandLo)
	}
	if c.Profile.Empty() {
		return fmt.Errorf("exp: adversary profile assigns no behavior")
	}
	return nil
}

// advState is a deployment's assembled adversary cohort.
type advState struct {
	sw *adversary.Switch
	// ids is the cohort in ascending host-index order.
	ids []ids.NodeID
	// isAdv, byHost, and behaviors are keyed by trace host index
	// (byHost is nil for honest hosts).
	isAdv     []bool
	byHost    []ids.NodeID
	behaviors []adversary.Behavior
}

// advSeedSalt decorrelates behavior RNG streams from the node's own
// agent/env streams derived from the same host seed.
const advSeedSalt = 0x5AD5AD5AD

// buildAdversaries selects the cohort and builds each member's
// composite behavior. Selection depends only on (trace, seed, config),
// so both engines pick the identical cohort for one scenario seed. A
// nil config returns a nil state (the honest deployment).
func buildAdversaries(cfg *AdversaryConfig, tr *trace.Trace, seed int64) (*advState, error) {
	if cfg == nil {
		return nil, nil
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	hi := cfg.BandHi
	if hi == 0 {
		hi = 1.01
	}
	epoch := tr.Epochs() - 1
	if cfg.SelectAt > 0 {
		if e := tr.EpochAt(cfg.SelectAt); e < epoch {
			epoch = e
		}
	}
	band := make([]int, 0, tr.Hosts())
	for h := 0; h < tr.Hosts(); h++ {
		av := tr.SmoothedAvailability(h, epoch)
		if av >= cfg.BandLo && av < hi {
			band = append(band, h)
		}
	}
	k := int(cfg.Fraction*float64(tr.Hosts()) + 0.5)
	if k > len(band) {
		k = len(band)
	}
	if k == 0 {
		return nil, fmt.Errorf("exp: adversary band [%v,%v) selects no hosts", cfg.BandLo, hi)
	}
	// A private RNG keeps cohort selection off the engines' world
	// streams: honest runs replay bit-identically with or without this
	// code path ever existing.
	rng := rand.New(rand.NewSource(seed ^ advSeedSalt))
	perm := rng.Perm(len(band))
	chosen := make([]int, k)
	for i := 0; i < k; i++ {
		chosen[i] = band[perm[i]]
	}
	sort.Ints(chosen)

	s := &advState{
		sw:        adversary.NewSwitch(cfg.ActiveAtStart),
		isAdv:     make([]bool, tr.Hosts()),
		byHost:    make([]ids.NodeID, tr.Hosts()),
		behaviors: make([]adversary.Behavior, tr.Hosts()),
	}
	hostIDs := tr.HostIDs()
	s.ids = make([]ids.NodeID, k)
	for i, h := range chosen {
		s.ids[i] = hostIDs[h]
		s.isAdv[h] = true
		s.byHost[h] = hostIDs[h]
	}
	for _, h := range chosen {
		b, err := cfg.Profile.Build(hostIDs[h], s.ids, nodeSeed(seed, h)+advSeedSalt, s.sw)
		if err != nil {
			return nil, err
		}
		s.behaviors[h] = b
	}
	return s, nil
}

// behavior returns the host's behavior (nil for honest hosts or a nil
// state).
func (s *advState) behavior(h int) adversary.Behavior {
	if s == nil || h < 0 || h >= len(s.behaviors) {
		return nil
	}
	return s.behaviors[h]
}

// cohort returns the adversary identities (nil for a nil state).
func (s *advState) cohort() []ids.NodeID {
	if s == nil {
		return nil
	}
	return s.ids
}

// setActive flips every cohort member's behavior switch.
func (s *advState) setActive(active bool) {
	if s != nil {
		s.sw.Set(active)
	}
}

// engagedCohort returns the cohort members that emitted traffic while
// armed — the denominator detection metrics use.
func (s *advState) engagedCohort() []ids.NodeID {
	if s == nil {
		return nil
	}
	out := make([]ids.NodeID, 0, len(s.ids))
	for h, b := range s.behaviors {
		if b == nil {
			continue
		}
		if e, ok := b.(interface{ Engaged() bool }); ok && e.Engaged() {
			out = append(out, s.byHost[h])
		}
	}
	return out
}

// shuffleTap adapts a deployment's behaviors and auditors to the
// central Cyclon's exchange interceptor, so the simulator engine gets
// the same view-poisoning attack surface and audit seam the live
// runtime gets from real shuffle messages. hostIndex resolves
// identities; selfAvail supplies honest claims; auditorAt may return
// nil (no audit layer).
//
// The offer crosses the hooks in the exact message types the live engine
// intercepts, so one behavior implementation serves both engines. The
// tap owns one request and one reply for that and refills them per hook
// call: a deployment is single-threaded, and neither a behavior nor the
// audit layer keeps a message past its return.
func shuffleTap(adv *advState, hostIndex func(ids.NodeID) int,
	selfAvail func(h int) float64, auditorAt func(h int) *audit.Auditor) *shuffle.Tap {
	var req shuffle.Request
	var rep shuffle.Reply
	message := func(reply bool, entries []shuffle.Entry, claim float64) any {
		if reply {
			rep.Entries, rep.SenderAvail = entries, claim
			return &rep
		}
		req.Entries, req.SenderAvail = entries, claim
		return &req
	}
	// FreeRide's verdict on an (empty) inbound request is the refusal.
	probe := new(shuffle.Request)
	return &shuffle.Tap{
		Outbound: func(owner ids.NodeID, reply bool, entries []shuffle.Entry) ([]shuffle.Entry, float64, bool) {
			h := hostIndex(owner)
			claim := selfAvail(h)
			b := adv.behavior(h)
			if b == nil {
				return entries, claim, false
			}
			// Drop verdicts carry over; delays degrade to passthrough (the
			// central exchange is instantaneous).
			d := b.Outbound(ids.Nil, message(reply, entries, claim))
			switch m := d.Msg.(type) {
			case *shuffle.Reply:
				return m.Entries, m.SenderAvail, d.Drop
			case *shuffle.Request:
				return m.Entries, m.SenderAvail, d.Drop
			}
			return entries, claim, d.Drop
		},
		Inbound: func(receiver, sender ids.NodeID, reply bool, entries []shuffle.Entry, claim float64) bool {
			a := auditorAt(hostIndex(receiver))
			if a == nil {
				return true
			}
			// The tap knows the sender's host index: hand it over as the
			// memo, and the exchange lands on the same record as the
			// sender's operation traffic.
			from := ids.AddrAt(sender, int32(hostIndex(sender)))
			return a.ObserveInbound(from, message(reply, entries, claim))
		},
		Refuse: func(owner ids.NodeID) bool {
			b := adv.behavior(hostIndex(owner))
			return b != nil && !b.Inbound(ids.Nil, probe)
		},
	}
}

// BiasResult measures how strongly the adversary cohort is
// over-represented in honest nodes' state — the eclipse-success metric.
type BiasResult struct {
	// PopulationShare is the cohort's share of the whole population.
	PopulationShare float64
	// MembershipShare is the cohort's share of all membership (sliver)
	// entries held by honest online nodes.
	MembershipShare float64
	// CoarseShare is the cohort's share of honest online nodes' coarse
	// (shuffling) views — where eclipse poisoning lands first.
	CoarseShare float64
	// Bias is CoarseShare/PopulationShare (1 = unbiased, 0 when
	// undefined).
	Bias float64
}

// OverlayBias probes any deployment for adversary over-representation
// in honest nodes' coarse views and membership lists.
func OverlayBias(w *Deployment) BiasResult {
	advs := w.Adversaries()
	res := BiasResult{}
	hosts := w.Hosts()
	if len(hosts) == 0 || len(advs) == 0 {
		return res
	}
	isAdv := make(map[ids.NodeID]bool, len(advs))
	for _, id := range advs {
		isAdv[id] = true
	}
	res.PopulationShare = float64(len(advs)) / float64(len(hosts))
	var memAdv, memAll, viewAdv, viewAll int
	for _, id := range w.OnlineHosts() {
		if isAdv[id] {
			continue
		}
		if m := w.Membership(id); m != nil {
			for _, nb := range m.Neighbors(core.HSVS) {
				memAll++
				if isAdv[nb.ID] {
					memAdv++
				}
			}
		}
		for _, peer := range w.CoarseView(id) {
			viewAll++
			if isAdv[peer] {
				viewAdv++
			}
		}
	}
	if memAll > 0 {
		res.MembershipShare = float64(memAdv) / float64(memAll)
	}
	if viewAll > 0 {
		res.CoarseShare = float64(viewAdv) / float64(viewAll)
	}
	if res.PopulationShare > 0 {
		res.Bias = res.CoarseShare / res.PopulationShare
	}
	return res
}

// EvictionStats summarizes the audit trail of a deployment under
// attack: how much of the cohort honest observers caught, how fast, and
// how many honest nodes were flagged along the way.
type EvictionStats struct {
	// Adversaries is the cohort size; Engaged of them emitted traffic
	// while armed, and Detected of those were evicted by at least one
	// honest observer.
	Adversaries int
	Engaged     int
	Detected    int
	// Honest is the honest population size; FlaggedHonest of them were
	// evicted by at least one honest observer (false positives).
	Honest        int
	FlaggedHonest int
	// MeanDetection is the mean, over detected adversaries, of the time
	// from onset to the first honest eviction.
	MeanDetection time.Duration
}

// DetectionRate returns Detected/Engaged (0 when nothing engaged — a
// cohort that never sent a byte was never caught, and says nothing
// about the audit layer).
func (s EvictionStats) DetectionRate() float64 {
	if s.Engaged == 0 {
		return 0
	}
	return float64(s.Detected) / float64(s.Engaged)
}

// FalsePositiveRate returns FlaggedHonest/Honest (0 when undefined).
func (s EvictionStats) FalsePositiveRate() float64 {
	if s.Honest == 0 {
		return 0
	}
	return float64(s.FlaggedHonest) / float64(s.Honest)
}

// EvictionReport probes any deployment's audit trail. onset is the
// virtual time the adversaries were switched on (detection latency is
// measured from it; evictions recorded before onset still count).
func EvictionReport(w *Deployment, onset time.Duration) EvictionStats {
	advs := w.Adversaries()
	stats := EvictionStats{
		Adversaries: len(advs),
		Engaged:     len(w.EngagedAdversaries()),
		Honest:      len(w.Hosts()) - len(advs),
	}
	trail := w.AuditTrail()
	if trail == nil {
		return stats
	}
	isAdv := make(map[ids.NodeID]bool, len(advs))
	for _, id := range advs {
		isAdv[id] = true
	}
	// First eviction per suspect by an honest observer.
	first := make(map[ids.NodeID]time.Duration, 32)
	for _, e := range trail.Evictions() {
		if isAdv[e.Observer] {
			continue
		}
		if at, ok := first[e.Suspect]; !ok || e.At < at {
			first[e.Suspect] = e.At
		}
	}
	var latencySum time.Duration
	for suspect, at := range first {
		if isAdv[suspect] {
			stats.Detected++
			if at > onset {
				latencySum += at - onset
			}
		} else {
			stats.FlaggedHonest++
		}
	}
	if stats.Detected > 0 {
		stats.MeanDetection = latencySum / time.Duration(stats.Detected)
	}
	return stats
}
