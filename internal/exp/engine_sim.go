package exp

import (
	"time"

	"avmem/internal/adversary"
	"avmem/internal/audit"
	"avmem/internal/core"
	"avmem/internal/ids"
	"avmem/internal/ops"
	"avmem/internal/runtime"
	"avmem/internal/shuffle"
)

// This file is the sim engine's per-host install: every host gets a
// membership and a router over the simulated network, one central Cyclon
// serves every host's coarse view, and cohort ticks drive discovery and
// refresh (startDrivers).

// installSim installs protocol state on every host and schedules the
// cohort drivers.
func (d *Deployment) installSim(pred *core.Predicate) error {
	cfg := d.Cfg
	cyc, err := shuffle.NewCyclon(cfg.ViewSize, cfg.ShuffleLen, nil, d.Rand)
	if err != nil {
		return err
	}
	if err := cyc.UseIndex(d.Trace.HostIndex, d.onlineAt); err != nil {
		return err
	}
	d.shuffle = cyc
	if cfg.Audit != nil {
		d.auditors = make([]*audit.Auditor, len(d.hosts))
	}
	if err := d.installNodes(pred); err != nil {
		return err
	}
	if d.adv != nil || d.trail != nil {
		// The central shuffle gets the same attack surface and audit
		// seam real shuffle messages give the live engine.
		d.shuffle.SetTap(shuffleTap(d.adv, d.Trace.HostIndex,
			func(h int) float64 { return d.members[h].SelfClaim() },
			d.auditorAt))
	}
	return d.startDrivers()
}

// auditorAt returns host h's audit layer (nil when auditing is off).
func (d *Deployment) auditorAt(h int) *audit.Auditor {
	if d.auditors == nil || h < 0 || h >= len(d.auditors) {
		return nil
	}
	return d.auditors[h]
}

// installNodes creates per-node state: membership, router, network
// handler, and the bootstrap join. Each node's trace row index is
// resolved here, once, and captured by its liveness closure.
func (d *Deployment) installNodes(pred *core.Predicate) error {
	bandCensus := d.bandCensus // one estimator shared by every router
	for h, id := range d.hosts {
		memCfg := core.Config{
			Predicate:     pred,
			Monitor:       d.Monitor,
			Hashes:        d.Hashes,
			Clock:         d.Sim.Now,
			VerifyCushion: d.Cfg.Cushion,
			PairIdx:       d.PairIdx,
			SelfIdx:       int32(h),
			MonitorIdx:    d.mon.monitor,
			MonitorEpoch:  d.mon.epoch,
			Stats:         &d.discovery,
		}
		var auditor *audit.Auditor
		if d.auditors != nil {
			slot := &d.members[h] // the auditor's SelfInfo resolves lazily
			a, err := audit.New(audit.Config{
				Self:      id,
				Params:    *d.Cfg.Audit,
				Predicate: pred,
				Monitor:   d.Monitor,
				SelfInfo:  func() core.NodeInfo { return (*slot).SelfInfo() },
				Clock:     d.Sim.Now,
				Hashes:    d.Hashes,
				Trail:     d.trail,
				Obs:       d.auditIns,
				// The host universe: senders are audited by the index their
				// address memo carries, checked against PairIdx.
				PairIdx:    d.PairIdx,
				SelfIdx:    int32(h),
				IndexOf:    d.Trace.HostIndex,
				MonitorIdx: d.mon.monitor,
			})
			if err != nil {
				return err
			}
			auditor = a
			d.auditors[h] = a
			memCfg.Blocked = a.Blocked
		}
		m, err := core.NewMembership(id, memCfg)
		if err != nil {
			return err
		}
		d.members[h] = m

		h := h
		env, err := runtime.NewVirtual(runtime.VirtualConfig{
			// The host index is resolved here, once: it rides on every
			// message this node sends.
			Self:      ids.AddrAt(id, int32(h)),
			Scheduler: d.Sim,
			Fabric:    runtime.NetFabric(d.Net),
			Online:    func() bool { return d.onlineAt(h) },
			RNG:       d.Rand,
		})
		if err != nil {
			return err
		}
		// The adversary interceptor wraps the env, so a Byzantine host's
		// router misbehaves on the wire exactly like a Byzantine live
		// node (Wrap is the identity for honest hosts).
		wenv := adversary.Wrap(env, d.adv.behavior(h))
		routerCfg := ops.RouterConfig{
			Membership:    m,
			Env:           wenv,
			Collector:     d.Collector,
			VerifyInbound: d.Cfg.VerifyInbound,
			BandCensus:    bandCensus,
			OpTrace:       d.Cfg.OpTrace,
			Stats:         &d.flood,
		}
		if auditor != nil {
			routerCfg.Auditor = auditor
		}
		r, err := ops.NewRouter(routerCfg)
		if err != nil {
			return err
		}
		d.initiators[h] = r
		if err := wenv.Register(r.HandleMessage); err != nil {
			return err
		}

		if err := d.shuffle.Join(id, d.randomSeeds(id, 4)); err != nil {
			return err
		}
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
func (d *Deployment) startDrivers() error {
	cfg := d.Cfg
	disc := make([][]int32, driverBuckets)
	refresh := make([][]int32, driverBuckets)
	for h := range d.hosts {
		o := d.Rand.Int63n(int64(cfg.ProtocolPeriod))
		b := int(o * driverBuckets / int64(cfg.ProtocolPeriod))
		disc[b] = append(disc[b], int32(h))
		r := d.Rand.Int63n(int64(cfg.RefreshPeriod))
		rb := int(r * driverBuckets / int64(cfg.RefreshPeriod))
		refresh[rb] = append(refresh[rb], int32(h))
	}
	for b, cohort := range disc {
		if len(cohort) == 0 {
			continue
		}
		cohort := cohort
		offset := time.Duration(int64(b) * int64(cfg.ProtocolPeriod) / driverBuckets)
		if err := d.Sim.Every(offset, cfg.ProtocolPeriod, nil, func() {
			d.discoverCohort(cohort)
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
		if err := d.Sim.Every(offset, cfg.RefreshPeriod, nil, func() {
			for _, h := range cohort {
				if d.onlineAt(int(h)) {
					d.members[h].Refresh()
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
func (d *Deployment) discoverCohort(cohort []int32) {
	for _, h := range cohort {
		if !d.onlineAt(int(h)) {
			continue
		}
		if d.shuffle.ViewLenIdx(int(h)) == 0 {
			// Rejoin after an outage emptied the view: bootstrap anew. A
			// host and its seeds are trace hosts, so a refusal is a bug.
			id := d.hosts[h]
			if err := d.shuffle.Join(id, d.randomSeeds(id, 4)); err != nil {
				panic(err)
			}
		}
		d.shuffle.TickIdx(int(h))
		// Every code in a Cyclon view is a host index: there are no strays.
		codes, memo := d.shuffle.ViewSlots(int(h))
		d.members[h].DiscoverView(codes, memo, nil)
	}
}

// randomSeeds picks up to n distinct random hosts other than self from
// the world RNG — the bootstrap-server story for (re)joining nodes.
func (d *Deployment) randomSeeds(self ids.NodeID, n int) []ids.NodeID {
	return pickSeeds(d.Rand, d.hosts, self, n)
}
